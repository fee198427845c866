(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section V) plus Bechamel micro-benchmarks of the
   substrate primitives.

     dune exec bench/main.exe            -- all experiments + micro
     dune exec bench/main.exe -- quick   -- shortened windows/sweeps
     dune exec bench/main.exe -- fig4    -- one experiment
     (also: fig5 fig6 fig7 table1 fig8 ablations micro_kv micro;
    `coord', `pipeline', `reads', `reconfig', `elastic' and `longhaul'
    are opt-in only and write BENCH_<name>.json into the current
    directory, or into DIR with [--out DIR])

   Absolute numbers come from the calibrated simulation (DESIGN.md);
   EXPERIMENTS.md records the paper-vs-measured comparison. *)

open Heron_stats
open Heron_harness

let say fmt = Printf.printf fmt

(* Directory the opt-in benches write their BENCH_*.json into
   ([--out DIR], default the current directory). Smoke runs point it
   elsewhere so they never overwrite the committed full-run files. *)
let out_dir = ref Filename.current_dir_name

let write_bench name json =
  let path = Filename.concat !out_dir name in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Heron_obs.Json.to_channel oc json;
      output_char oc '\n')

let timed name f =
  let t0 = Unix.gettimeofday () in
  f ();
  say "[%s: %.1fs]\n\n%!" name (Unix.gettimeofday () -. t0)

let print_tables ts =
  List.iter
    (fun t ->
      Table.print t;
      print_newline ())
    ts

let run_fig4 ~quick = timed "fig4" (fun () -> print_tables [ Experiments.fig4 ~quick () ])
let run_fig5 ~quick = timed "fig5" (fun () -> print_tables [ Experiments.fig5 ~quick () ])

let run_fig6 ~quick =
  timed "fig6" (fun () ->
      let a, b = Experiments.fig6 ~quick () in
      print_tables [ a; b ])

let run_fig7 ~quick =
  timed "fig7" (fun () ->
      let a, b = Experiments.fig7 ~quick () in
      print_tables [ a; b ])

let run_table1 ~quick =
  timed "table1" (fun () -> print_tables [ Experiments.table1 ~quick () ])

let run_fig8 ~quick = timed "fig8" (fun () -> print_tables [ Experiments.fig8 ~quick () ])

let run_ablations ~quick =
  timed "ablations" (fun () ->
      print_tables
        [
          Experiments.ablation_grace ~quick ();
          Experiments.ablation_parallel ~quick ();
          Experiments.ablation_batching ~quick ();
          Experiments.ablation_coord_batching ~quick ();
        ])

let run_micro_kv ~quick =
  timed "micro_kv" (fun () ->
      let a, b = Experiments.micro_kv ~quick () in
      print_tables [ a; b ])

(* {1 Coordination smoke bench}

   A fast, machine-readable summary of the coordination path for
   scripts/check.sh: multi-partition client latency with doorbell
   batching on and off, single-partition throughput, and the doorbell
   charge counts, written to BENCH_coord.json in the current
   directory. *)

let run_coord ~quick ~breakdown ~trace_file =
  timed "coord" (fun () ->
      let open Heron_sim in
      let open Heron_core in
      let t0 = Unix.gettimeofday () in
      let warmup = Time_ns.ms (if quick then 2 else 5) in
      let measure = Time_ns.ms (if quick then 8 else 20) in
      (* Every run carries a request-trace collector (DESIGN.md §11):
         span recording spends no virtual time, so the reported latency
         and throughput ARE the traced numbers; the untraced control run
         below demonstrates the (zero) regression explicitly. *)
      let run ?(traced = true) ~coord_batching ~clients ~gen_dst () =
        let reg = Heron_obs.Metrics.create () in
        let col =
          if traced then begin
            let col = Heron_obs.Reqtrace.create ~ring:2048 () in
            Heron_obs.Reqtrace.attach_metrics col reg;
            Some col
          end
          else None
        in
        let eng = Engine.create ~seed:12 () in
        let cfg =
          let c = Config.default ~partitions:2 ~replicas:3 in
          { c with Config.coord_batching; metrics = reg; reqtrace = col }
        in
        let sys = System.create eng ~cfg ~app:Heron_harness.Driver.null_app in
        System.start sys;
        let rs =
          Heron_harness.Driver.run_system ~warmup ~measure ~sys ~clients
            ~gen:(fun ~client rng ->
              ignore client;
              ( { Heron_harness.Driver.nr_dst = []; nr_bytes = 200 },
                Some (gen_dst rng) ))
            ()
        in
        (rs, reg, col)
      in
      (* Low load for the latency probe (coordination-dominated, not
         queueing-dominated); saturation for throughput. *)
      let multi_on, reg_on, col_on =
        run ~coord_batching:true ~clients:2 ~gen_dst:(fun _ -> [ 0; 1 ]) ()
      in
      let multi_off, reg_off, _ =
        run ~coord_batching:false ~clients:2 ~gen_dst:(fun _ -> [ 0; 1 ]) ()
      in
      let single, _, _ =
        run ~coord_batching:true ~clients:16
          ~gen_dst:(fun rng -> [ Random.State.int rng 2 ])
          ()
      in
      let single_untraced, _, _ =
        run ~traced:false ~coord_batching:true ~clients:16
          ~gen_dst:(fun rng -> [ Random.State.int rng 2 ])
          ()
      in
      let p rs q =
        float_of_int (Sample_set.percentile rs.Heron_harness.Driver.rs_latency q)
        /. 1e3
      in
      let posts_on = Experiments.write_post_charges reg_on in
      let posts_off = Experiments.write_post_charges reg_off in
      let tput rs = rs.Heron_harness.Driver.rs_throughput_tps in
      let trace_delta_pct =
        if tput single_untraced = 0. then 0.
        else (tput single -. tput single_untraced) /. tput single_untraced *. 100.
      in
      (* Per-stage critical-path breakdown of the batched multi run:
         the stage histograms and req.e2e_ns are fed from the same
         population (every finished trace), so per-request attributions
         sum exactly to end-to-end latency and the per-stage p50s sum
         to the e2e p50 within histogram bucket slack. *)
      let snap_on = Heron_obs.Metrics.snapshot reg_on in
      let stages =
        List.filter_map
          (fun e ->
            match (e.Heron_obs.Metrics.e_name, e.Heron_obs.Metrics.e_value) with
            | "req.stage_ns", Heron_obs.Metrics.Histogram_v h ->
                Some (List.assoc "stage" e.Heron_obs.Metrics.e_labels, h)
            | _ -> None)
          snap_on
      in
      let e2e =
        match Heron_obs.Metrics.find snap_on "req.e2e_ns" with
        | Some (Heron_obs.Metrics.Histogram_v h) -> Some h
        | _ -> None
      in
      let us ns = float_of_int ns /. 1e3 in
      let stage_p50_sum =
        List.fold_left
          (fun acc (_, h) -> acc +. us h.Heron_obs.Metrics.hs_p50)
          0. stages
      in
      let e2e_p50 =
        match e2e with Some h -> us h.Heron_obs.Metrics.hs_p50 | None -> 0.
      in
      if breakdown then begin
        say "coord breakdown (multi-partition, batched; traced requests):\n";
        List.iter
          (fun (stage, h) ->
            say "  %-14s p50 %7.2f us  p99 %7.2f us  (n=%d)\n" stage
              (us h.Heron_obs.Metrics.hs_p50)
              (us h.Heron_obs.Metrics.hs_p99)
              h.Heron_obs.Metrics.hs_count)
          (List.sort
             (fun (_, a) (_, b) ->
               compare b.Heron_obs.Metrics.hs_p50 a.Heron_obs.Metrics.hs_p50)
             stages);
        say "  %-14s p50 %7.2f us (stage p50 sum %.2f us)\n" "end-to-end"
          e2e_p50 stage_p50_sum
      end;
      (match trace_file with
      | None -> ()
      | Some file ->
          let requests =
            match col_on with
            | Some col -> Heron_obs.Reqtrace.export_trees col
            | None -> []
          in
          Heron_obs.Trace_export.write_file ~requests file [];
          say "request trace written to %s (%d trees)\n" file
            (List.length requests));
      let stage_json =
        Heron_obs.Json.Obj
          (List.map
             (fun (stage, h) ->
               ( stage,
                 Heron_obs.Json.Obj
                   [
                     ("p50_us", Heron_obs.Json.Float (us h.Heron_obs.Metrics.hs_p50));
                     ("p99_us", Heron_obs.Json.Float (us h.Heron_obs.Metrics.hs_p99));
                     ("count", Heron_obs.Json.Int h.Heron_obs.Metrics.hs_count);
                   ] ))
             stages)
      in
      let json =
        Heron_obs.Json.Obj
          [
            ("bench", Heron_obs.Json.String "coord");
            ("quick", Heron_obs.Json.Bool quick);
            ("multi_p50_us", Heron_obs.Json.Float (p multi_on 50.));
            ("multi_p99_us", Heron_obs.Json.Float (p multi_on 99.));
            ("multi_p50_us_unbatched", Heron_obs.Json.Float (p multi_off 50.));
            ("multi_p99_us_unbatched", Heron_obs.Json.Float (p multi_off 99.));
            ("single_partition_tput_tps", Heron_obs.Json.Float (tput single));
            ( "single_partition_tput_tps_untraced",
              Heron_obs.Json.Float (tput single_untraced) );
            ("tracing_tput_delta_pct", Heron_obs.Json.Float trace_delta_pct);
            ("write_post_charges_batched", Heron_obs.Json.Int posts_on);
            ("write_post_charges_unbatched", Heron_obs.Json.Int posts_off);
            ( "traced_requests",
              Heron_obs.Json.Int
                (match col_on with
                | Some col -> Heron_obs.Reqtrace.finished col
                | None -> 0) );
            ("e2e_p50_us", Heron_obs.Json.Float e2e_p50);
            ("stage_p50_sum_us", Heron_obs.Json.Float stage_p50_sum);
            ("stages", stage_json);
            ("wall_s", Heron_obs.Json.Float (Unix.gettimeofday () -. t0));
          ]
      in
      write_bench "BENCH_coord.json" json;
      say
        "coord: multi p50 %.1f us / p99 %.1f us batched (%.1f / %.1f unbatched), \
         single-partition %.0f tps (untraced %.0f, delta %+.2f%%), doorbells %d \
         vs %d -> BENCH_coord.json\n"
        (p multi_on 50.) (p multi_on 99.) (p multi_off 50.) (p multi_off 99.)
        (tput single) (tput single_untraced) trace_delta_pct posts_on posts_off)

(* {1 Pipeline ablation bench}

   The compartmentalized replica pipeline (DESIGN.md §12) swept over
   pipelining on/off × executor pool size × batch size, all on the same
   2-partition/3-replica deployment and workload as the coord bench so
   the off cell is directly comparable to BENCH_coord.json's
   single-partition throughput. Writes BENCH_pipeline.json; scripts/
   check.sh guards the committed quick-mode baseline against >10%
   regressions. *)

let run_pipeline ~quick =
  timed "pipeline" (fun () ->
      let open Heron_sim in
      let open Heron_core in
      let t0 = Unix.gettimeofday () in
      let warmup = Time_ns.ms (if quick then 2 else 5) in
      let measure = Time_ns.ms (if quick then 8 else 20) in
      let run ~pipe ~clients ~gen_dst () =
        let reg = Heron_obs.Metrics.create () in
        let eng = Engine.create ~seed:12 () in
        let cfg =
          let c = Config.default ~partitions:2 ~replicas:3 in
          { c with Config.metrics = reg; pipeline = pipe }
        in
        let sys = System.create eng ~cfg ~app:Heron_harness.Driver.null_app in
        System.start sys;
        let rs =
          Heron_harness.Driver.run_system ~warmup ~measure ~sys ~clients
            ~gen:(fun ~client rng ->
              ignore client;
              ( { Heron_harness.Driver.nr_dst = []; nr_bytes = 200 },
                Some (gen_dst rng) ))
            ()
        in
        (rs, reg)
      in
      let single rng = [ Random.State.int rng 2 ] in
      let off = Config.default_pipeline in
      let on ~executors ~batch =
        {
          Config.default_pipeline with
          Config.pipe_enabled = true;
          pipe_executors = executors;
          pipe_batch_size = batch;
        }
      in
      let tput rs = rs.Heron_harness.Driver.rs_throughput_tps in
      let p rs q =
        float_of_int (Sample_set.percentile rs.Heron_harness.Driver.rs_latency q)
        /. 1e3
      in
      (* 16 closed-loop clients saturate the monolithic loop (the coord
         bench's operating point); the pipelined cells also get 64 so
         batches actually fill. The off64 cell shows the off-pipeline
         path at the same offered load. *)
      let rs_off, _ = run ~pipe:off ~clients:16 ~gen_dst:single () in
      let rs_off64, _ = run ~pipe:off ~clients:64 ~gen_dst:single () in
      let grid =
        List.concat_map
          (fun executors ->
            List.map
              (fun batch ->
                let rs, reg =
                  run ~pipe:(on ~executors ~batch) ~clients:64 ~gen_dst:single ()
                in
                let occ_mean, occ_max =
                  match
                    Heron_obs.Metrics.find
                      (Heron_obs.Metrics.snapshot reg)
                      "pipeline.batch_occupancy"
                  with
                  | Some (Heron_obs.Metrics.Histogram_v h)
                    when h.Heron_obs.Metrics.hs_count > 0 ->
                      ( float_of_int h.Heron_obs.Metrics.hs_sum
                        /. float_of_int h.Heron_obs.Metrics.hs_count,
                        h.Heron_obs.Metrics.hs_max )
                  | _ -> (0., 0)
                in
                say "  pipeline exec=%d batch=%-2d  %9.0f tps  p50 %6.1f us  \
                     p99 %6.1f us  occ %.1f/%d\n%!"
                  executors batch (tput rs) (p rs 50.) (p rs 99.) occ_mean occ_max;
                (executors, batch, rs, occ_mean, occ_max))
              [ 1; 8; 32 ])
          [ 1; 2; 4; 8 ]
      in
      (* Multi-partition latency probe: the batcher must not tax the
         cross-partition path (multi requests bypass it). *)
      let rs_multi_off, _ = run ~pipe:off ~clients:2 ~gen_dst:(fun _ -> [ 0; 1 ]) () in
      let rs_multi_on, _ =
        run
          ~pipe:(on ~executors:4 ~batch:8)
          ~clients:2
          ~gen_dst:(fun _ -> [ 0; 1 ])
          ()
      in
      let best =
        List.fold_left
          (fun best cell ->
            let _, _, rs, _, _ = cell and _, _, brs, _, _ = best in
            if tput rs > tput brs then cell else best)
          (List.hd grid) (List.tl grid)
      in
      let best_e, best_b, best_rs, _, _ = best in
      let speedup = if tput rs_off = 0. then 0. else tput best_rs /. tput rs_off in
      let cell_json (e, b, rs, occ_mean, occ_max) =
        Heron_obs.Json.Obj
          [
            ("executors", Heron_obs.Json.Int e);
            ("batch", Heron_obs.Json.Int b);
            ("tput_tps", Heron_obs.Json.Float (tput rs));
            ("p50_us", Heron_obs.Json.Float (p rs 50.));
            ("p99_us", Heron_obs.Json.Float (p rs 99.));
            ("batch_occupancy_mean", Heron_obs.Json.Float occ_mean);
            ("batch_occupancy_max", Heron_obs.Json.Int occ_max);
          ]
      in
      let json =
        Heron_obs.Json.Obj
          [
            ("bench", Heron_obs.Json.String "pipeline");
            ("quick", Heron_obs.Json.Bool quick);
            ("off_tput_tps", Heron_obs.Json.Float (tput rs_off));
            ("off64_tput_tps", Heron_obs.Json.Float (tput rs_off64));
            ("best_pipeline_tput_tps", Heron_obs.Json.Float (tput best_rs));
            ("best_executors", Heron_obs.Json.Int best_e);
            ("best_batch", Heron_obs.Json.Int best_b);
            ("speedup_vs_off", Heron_obs.Json.Float speedup);
            ("multi_p50_us_off", Heron_obs.Json.Float (p rs_multi_off 50.));
            ("multi_p99_us_off", Heron_obs.Json.Float (p rs_multi_off 99.));
            ("multi_p50_us_on", Heron_obs.Json.Float (p rs_multi_on 50.));
            ("multi_p99_us_on", Heron_obs.Json.Float (p rs_multi_on 99.));
            ("grid", Heron_obs.Json.List (List.map cell_json grid));
            ("wall_s", Heron_obs.Json.Float (Unix.gettimeofday () -. t0));
          ]
      in
      write_bench "BENCH_pipeline.json" json;
      say
        "pipeline: off %.0f tps (64c %.0f), best %.0f tps at exec=%d batch=%d \
         (%.2fx), multi p50 %.1f us off -> %.1f us on -> BENCH_pipeline.json\n"
        (tput rs_off) (tput rs_off64) (tput best_rs) best_e best_b speedup
        (p rs_multi_off 50.) (p rs_multi_on 50.))

(* {1 Fast-read ablation bench}

   Lease-based local reads (DESIGN.md §14) swept over YCSB A/B/C ×
   fast_reads on/off on a 2-partition/3-replica deployment: the off
   cells order every read through the multicast, the on cells serve
   single-partition reads from lease-holding replicas' local stores.
   Probes write (100%-update) and scan (cross-partition) latency under
   both configurations — the fast path must buy read throughput without
   taxing either. Writes BENCH_reads.json; scripts/check.sh guards the
   committed quick-mode baseline's [read_tput_tps]. *)

let run_reads ~quick ~breakdown =
  timed "reads" (fun () ->
      let open Heron_sim in
      let open Heron_core in
      let open Heron_ycsb in
      let t0 = Unix.gettimeofday () in
      let partitions = 2 and replicas = 3 in
      let records = 256 and value_bytes = 64 in
      let clients = 48 in
      let warmup = Time_ns.ms (if quick then 2 else 5) in
      let measure = Time_ns.ms (if quick then 8 else 20) in
      let run ~fast ~profile =
        let reg = Heron_obs.Metrics.create () in
        let eng = Engine.create ~seed:19 () in
        let cfg =
          { (Config.default ~partitions ~replicas) with
            Config.metrics = reg;
            fast_reads =
              (if fast then
                 { Config.default_fast_reads with Config.fr_enabled = true }
               else Config.default_fast_reads) }
        in
        let app = Ycsb_app.app ~records ~value_bytes ~partitions in
        let sys = System.create eng ~cfg ~app in
        System.start sys;
        let rs =
          Heron_harness.Driver.run_system ~warmup ~measure ~sys ~clients
            ~gen:(fun ~client rng ->
              ignore client;
              (Ycsb_app.gen profile ~records ~key_dist:`Uniform rng, None))
            ()
        in
        let counter name =
          Heron_obs.Metrics.counter_value (Heron_obs.Metrics.counter reg name)
        in
        (rs, counter "reads.local_served", counter "reads.lease_miss")
      in
      let tput (rs : Heron_harness.Driver.run_stats) =
        rs.Heron_harness.Driver.rs_throughput_tps
      in
      let p (rs : Heron_harness.Driver.run_stats) q =
        float_of_int (Sample_set.percentile rs.Heron_harness.Driver.rs_latency q)
        /. 1e3
      in
      let cells =
        List.concat_map
          (fun (wname, profile) ->
            List.map
              (fun fast ->
                let rs, served, missed = run ~fast ~profile in
                let total = served + missed in
                let frac =
                  if total = 0 then 0.
                  else float_of_int served /. float_of_int total
                in
                say "  reads %s fast=%-5b %9.0f tps  p50 %6.1f us  p99 %6.1f us  \
                     local %d/%d\n%!"
                  wname fast (tput rs) (p rs 50.) (p rs 99.) served total;
                (wname, fast, rs, served, missed, frac))
              [ false; true ])
          [ ("A", Ycsb_app.workload_a);
            ("B", Ycsb_app.workload_b);
            ("C", Ycsb_app.workload_c) ]
      in
      let cell w fast =
        let _, _, rs, _, _, _ =
          List.find (fun (w', f, _, _, _, _) -> w' = w && f = fast) cells
        in
        rs
      in
      let c_on = cell "C" true and c_off = cell "C" false in
      let speedup = if tput c_off = 0. then 0. else tput c_on /. tput c_off in
      (* Write probe: 100% updates. Commit-wait gates every ack on the
         lease holders' applied frontiers, so this is where a regression
         would surface. *)
      let writes = { Ycsb_app.read_pct = 0; update_pct = 100; rmw_pct = 0; scan_pct = 0 } in
      let w_on, _, _ = run ~fast:true ~profile:writes in
      let w_off, _, _ = run ~fast:false ~profile:writes in
      (* Scan probe: workload E's cross-partition scans never take the
         fast path (multi-partition destination set); judge them on the
         driver's multi-partition latency split so the mix's fast
         single-key reads don't dilute the number. *)
      let e_on, _, _ = run ~fast:true ~profile:Ycsb_app.workload_e in
      let e_off, _, _ = run ~fast:false ~profile:Ycsb_app.workload_e in
      let pm (rs : Heron_harness.Driver.run_stats) q =
        float_of_int
          (Sample_set.percentile rs.Heron_harness.Driver.rs_latency_multi q)
        /. 1e3
      in
      if breakdown then begin
        say "  breakdown: local reads    p50 %6.1f us  p99 %6.1f us (YCSB-C on)\n"
          (p c_on 50.) (p c_on 99.);
        say "  breakdown: ordered reads  p50 %6.1f us  p99 %6.1f us (YCSB-C off)\n"
          (p c_off 50.) (p c_off 99.);
        say "  breakdown: writes         p50 %6.1f us on / %6.1f us off\n"
          (p w_on 50.) (p w_off 50.);
        say "  breakdown: scans (multi)  p50 %6.1f us on / %6.1f us off\n"
          (pm e_on 50.) (pm e_off 50.)
      end;
      let cell_json (w, fast, rs, served, missed, frac) =
        Heron_obs.Json.Obj
          [
            ("workload", Heron_obs.Json.String w);
            ("fast_reads", Heron_obs.Json.Bool fast);
            ("tput_tps", Heron_obs.Json.Float (tput rs));
            ("p50_us", Heron_obs.Json.Float (p rs 50.));
            ("p99_us", Heron_obs.Json.Float (p rs 99.));
            ("local_served", Heron_obs.Json.Int served);
            ("lease_miss", Heron_obs.Json.Int missed);
            ("local_fraction", Heron_obs.Json.Float frac);
          ]
      in
      let json =
        Heron_obs.Json.Obj
          [
            ("bench", Heron_obs.Json.String "reads");
            ("quick", Heron_obs.Json.Bool quick);
            ("replicas", Heron_obs.Json.Int replicas);
            ("partitions", Heron_obs.Json.Int partitions);
            ("read_tput_tps", Heron_obs.Json.Float (tput c_on));
            ("read_tput_off_tps", Heron_obs.Json.Float (tput c_off));
            ("read_speedup", Heron_obs.Json.Float speedup);
            ("local_p50_us", Heron_obs.Json.Float (p c_on 50.));
            ("local_p99_us", Heron_obs.Json.Float (p c_on 99.));
            ("ordered_p50_us", Heron_obs.Json.Float (p c_off 50.));
            ("ordered_p99_us", Heron_obs.Json.Float (p c_off 99.));
            ("write_p50_us_on", Heron_obs.Json.Float (p w_on 50.));
            ("write_p50_us_off", Heron_obs.Json.Float (p w_off 50.));
            ("scan_p50_us_on", Heron_obs.Json.Float (pm e_on 50.));
            ("scan_p50_us_off", Heron_obs.Json.Float (pm e_off 50.));
            ("grid", Heron_obs.Json.List (List.map cell_json cells));
            ("wall_s", Heron_obs.Json.Float (Unix.gettimeofday () -. t0));
          ]
      in
      write_bench "BENCH_reads.json" json;
      say
        "reads: YCSB-C %.0f tps ordered -> %.0f tps local (%.1fx), write p50 \
         %.1f -> %.1f us, scan p50 %.1f -> %.1f us -> BENCH_reads.json\n"
        (tput c_off) (tput c_on) speedup (p w_off 50.) (p w_on 50.)
        (pm e_off 50.) (pm e_on 50.))

(* {1 Shifting-hotspot reconfiguration bench}

   A YCSB-style workload whose zipfian popularity is concentrated on
   one partition's keys, with the hot partition switched mid-run.
   Compares a static placement against the live rebalancer
   (DESIGN.md §10) and writes BENCH_reconfig.json; the rebalanced run
   must beat the static one after the shift. *)

let run_reconfig ~quick =
  timed "reconfig" (fun () ->
      let open Heron_sim in
      let open Heron_core in
      let open Heron_ycsb in
      let t0 = Unix.gettimeofday () in
      let partitions = 4 and replicas = 3 in
      let records = 256 and value_bytes = 64 in
      let clients = 16 in
      let warmup = Time_ns.ms (if quick then 2 else 5) in
      let measure = Time_ns.ms (if quick then 8 else 20) in
      let adapt = Time_ns.ms (if quick then 6 else 15) in
      let run ~rebalance =
        let reg = Heron_obs.Metrics.create () in
        let eng = Engine.create ~seed:21 () in
        let cfg =
          { (Config.default ~partitions ~replicas) with
            Config.metrics = reg;
            reconfig = { Config.enabled = true } }
        in
        let app = Ycsb_app.app ~records ~value_bytes ~partitions in
        let sys = System.create eng ~cfg ~app in
        System.start sys;
        let zipf = Zipf.create ~n:(records / partitions) () in
        let hot = ref 0 in
        (* Phase-tagged samples: [None] during warmup/adaptation. *)
        let phase = ref None in
        let phases = [| Sample_set.create (); Sample_set.create () |] in
        let completed = [| ref 0; ref 0 |] in
        for c = 0 to clients - 1 do
          let rng = Random.State.make [| c; 0x4EC0; 0xBE7C |] in
          let node = System.new_client_node sys ~name:(Printf.sprintf "yc-%d" c) in
          Heron_rdma.Fabric.spawn_on node (fun () ->
              let rec loop () =
                let rank = Zipf.sample zipf rng in
                let key =
                  Ycsb_app.hotspot_key ~records ~partitions ~hot:!hot rank
                in
                let op =
                  if Random.State.int rng 100 < 50 then Ycsb_app.Y_read key
                  else
                    Ycsb_app.Y_update { key; seed = Random.State.int rng 1000 }
                in
                let t0 = Engine.self_now () in
                ignore (System.submit sys ~from:node op);
                let t1 = Engine.self_now () in
                (match !phase with
                | None -> ()
                | Some p ->
                    incr completed.(p);
                    Sample_set.add phases.(p) (t1 - t0));
                loop ()
              in
              loop ())
        done;
        let rb =
          if rebalance then
            Some
              (Heron_reconfig.Rebalancer.start
                 ~policy:
                   {
                     Heron_reconfig.Rebalancer.default_policy with
                     imbalance_x100 = 130;
                     min_accesses = 50;
                   }
                 sys)
          else None
        in
        Engine.run_until eng (Engine.now eng + warmup);
        phase := Some 0;
        Engine.run_until eng (Engine.now eng + measure);
        phase := None;
        (* The hotspot moves to another partition's stripe; give the
           rebalancer (if any) one adaptation window before measuring. *)
        hot := 2;
        Engine.run_until eng (Engine.now eng + adapt);
        phase := Some 1;
        Engine.run_until eng (Engine.now eng + measure);
        phase := None;
        Option.iter Heron_reconfig.Rebalancer.stop rb;
        let tput p =
          float_of_int !(completed.(p)) /. Time_ns.to_s_f measure
        in
        let c name =
          Heron_obs.Metrics.counter_value (Heron_obs.Metrics.counter reg name)
        in
        ( tput 0,
          tput 1,
          float_of_int (Sample_set.percentile phases.(1) 50.) /. 1e3,
          c "reconfig.migrations",
          c "reconfig.objects_moved",
          Placement.epoch (System.directory sys) )
      in
      let s_pre, s_post, s_p50, _, _, _ = run ~rebalance:false in
      let r_pre, r_post, r_p50, migrations, moved, epoch = run ~rebalance:true in
      let json =
        Heron_obs.Json.Obj
          [
            ("bench", Heron_obs.Json.String "reconfig");
            ("quick", Heron_obs.Json.Bool quick);
            ("static_preshift_tput_tps", Heron_obs.Json.Float s_pre);
            ("static_postshift_tput_tps", Heron_obs.Json.Float s_post);
            ("static_postshift_p50_us", Heron_obs.Json.Float s_p50);
            ("rebalanced_preshift_tput_tps", Heron_obs.Json.Float r_pre);
            ("rebalanced_postshift_tput_tps", Heron_obs.Json.Float r_post);
            ("rebalanced_postshift_p50_us", Heron_obs.Json.Float r_p50);
            ("migrations", Heron_obs.Json.Int migrations);
            ("objects_moved", Heron_obs.Json.Int moved);
            ("final_epoch", Heron_obs.Json.Int epoch);
            ("wall_s", Heron_obs.Json.Float (Unix.gettimeofday () -. t0));
          ]
      in
      write_bench "BENCH_reconfig.json" json;
      say
        "reconfig: post-shift %.0f tps static vs %.0f tps rebalanced (pre-shift \
         %.0f vs %.0f), %d migrations / %d objects, epoch %d -> \
         BENCH_reconfig.json\n"
        s_post r_post s_pre r_pre migrations moved epoch)

(* {1 Elastic ramp bench}

   Closed-loop write traffic whose client population grows 10x
   mid-run — the launch-day ramp. The elastic deployment (DESIGN.md
   §15) starts with two shards over a six-group pool and lets the
   rebalancer's split tier recruit dormant groups as load saturates;
   the static deployment is provisioned at the same initial serving
   capacity (two partitions) and has nowhere to grow. Post-ramp the
   elastic run must out-serve the static one with at least one split
   landing mid-run — the acceptance bar BENCH_elastic.json records and
   check.sh guards against the committed quick-mode baseline. *)

let run_elastic ~quick =
  timed "elastic" (fun () ->
      let open Heron_sim in
      let open Heron_core in
      let open Heron_kv in
      let t0 = Unix.gettimeofday () in
      let replicas = 3 and keys = 96 in
      let pool = 8 and provisioned = 2 in
      let base_clients = 2 and ramp_factor = 10 in
      let warmup = Time_ns.ms (if quick then 2 else 5) in
      let measure = Time_ns.ms (if quick then 8 else 20) in
      let adapt = Time_ns.ms (if quick then 6 else 15) in
      let run ~partitions ~elastic =
        let reg = Heron_obs.Metrics.create () in
        let eng = Engine.create ~seed:31 () in
        let cfg =
          {
            (Config.default ~partitions ~replicas) with
            Config.metrics = reg;
            reconfig = { Config.enabled = elastic };
            topology =
              (if elastic then
                 { Config.topo_enabled = true; topo_shards = provisioned }
               else Config.default_topology);
          }
        in
        let sys =
          System.create eng ~cfg ~app:(Kv_app.app ~keys ~partitions ~init:0L)
        in
        System.start sys;
        let phase = ref None in
        let phases = [| Sample_set.create (); Sample_set.create () |] in
        let completed = [| ref 0; ref 0 |] in
        let spawn_client c =
          let rng = Random.State.make [| c; 0xE1A5; 0x11C |] in
          let node =
            System.new_client_node sys ~name:(Printf.sprintf "el-%d" c)
          in
          Heron_rdma.Fabric.spawn_on node (fun () ->
              let rec loop () =
                let k = Random.State.int rng keys in
                let t0 = Engine.self_now () in
                ignore (System.submit sys ~from:node (Kv_app.Add (k, 1L)));
                let t1 = Engine.self_now () in
                (match !phase with
                | None -> ()
                | Some p ->
                    incr completed.(p);
                    Sample_set.add phases.(p) (t1 - t0));
                loop ()
              in
              loop ())
        in
        for c = 0 to base_clients - 1 do
          spawn_client c
        done;
        let rb =
          if elastic then
            Some
              (Heron_reconfig.Rebalancer.start
                 ~policy:
                   {
                     Heron_reconfig.Rebalancer.default_policy with
                     (* Tier 1 object moves cannot relieve uniform
                        saturation; park it and let the split/merge
                        tiers carry the ramp. *)
                     period_ns = Time_ns.us 500;
                     imbalance_x100 = 1_000_000;
                     split_min_accesses = 40;
                     split_patience = 1;
                     merge_max_accesses = 0;
                   }
                 sys)
          else None
        in
        Engine.run_until eng (Engine.now eng + warmup);
        phase := Some 0;
        Engine.run_until eng (Engine.now eng + measure);
        phase := None;
        (* The floodgates open: traffic grows [ramp_factor]x. *)
        for c = base_clients to (base_clients * ramp_factor) - 1 do
          spawn_client c
        done;
        Engine.run_until eng (Engine.now eng + adapt);
        phase := Some 1;
        Engine.run_until eng (Engine.now eng + measure);
        phase := None;
        Option.iter Heron_reconfig.Rebalancer.stop rb;
        let tput p = float_of_int !(completed.(p)) /. Time_ns.to_s_f measure in
        let c name =
          Heron_obs.Metrics.counter_value (Heron_obs.Metrics.counter reg name)
        in
        let g name =
          Heron_obs.Metrics.gauge_value (Heron_obs.Metrics.gauge reg name)
        in
        ( tput 0,
          tput 1,
          float_of_int (Sample_set.percentile phases.(1) 50.) /. 1e3,
          c "topology.splits",
          g "topology.shards",
          Placement.epoch (System.directory sys) )
      in
      let s_pre, s_post, s_p50, _, _, _ =
        run ~partitions:provisioned ~elastic:false
      in
      let e_pre, e_post, e_p50, splits, shards, epoch =
        run ~partitions:pool ~elastic:true
      in
      let json =
        Heron_obs.Json.Obj
          [
            ("bench", Heron_obs.Json.String "elastic");
            ("quick", Heron_obs.Json.Bool quick);
            ("static_preramp_tput_tps", Heron_obs.Json.Float s_pre);
            ("static_postramp_tput_tps", Heron_obs.Json.Float s_post);
            ("static_postramp_p50_us", Heron_obs.Json.Float s_p50);
            ("elastic_preramp_tput_tps", Heron_obs.Json.Float e_pre);
            ("elastic_postramp_tput_tps", Heron_obs.Json.Float e_post);
            ("elastic_postramp_p50_us", Heron_obs.Json.Float e_p50);
            ("splits", Heron_obs.Json.Int splits);
            ("final_shards", Heron_obs.Json.Int shards);
            ("final_epoch", Heron_obs.Json.Int epoch);
            ("wall_s", Heron_obs.Json.Float (Unix.gettimeofday () -. t0));
          ]
      in
      write_bench "BENCH_elastic.json" json;
      say
        "elastic: post-ramp %.0f tps elastic vs %.0f tps static (pre-ramp %.0f \
         vs %.0f), %d splits, %d shards, epoch %d -> BENCH_elastic.json\n"
        e_post s_post e_pre s_pre splits shards epoch)

(* {1 Long-horizon durability bench}

   Continuous increment traffic over a multi-second virtual horizon
   with two follower bounces — one early (short history) and one late
   (long history). Compares checkpointing on vs off (DESIGN.md §13):
   the update log stays flat under compaction but grows with history
   without it, and rejoin cost is O(delta) under checkpointing (late
   bounce costs about the same as the early one) while the baseline's
   grows with the history replayed. Writes BENCH_longhaul.json;
   check.sh guards the durable throughput and the compaction factor
   against the committed quick-mode baseline. *)

let run_longhaul ~quick =
  timed "longhaul" (fun () ->
      let open Heron_sim in
      let open Heron_core in
      let t0 = Unix.gettimeofday () in
      let partitions = 2 and replicas = 3 in
      let clients = 3 in
      let horizon = if quick then Time_ns.s 1 else Time_ns.s 8 in
      let run ~durable =
        let reg = Heron_obs.Metrics.create () in
        let eng = Engine.create ~seed:47 () in
        let cfg =
          {
            (Config.default ~partitions ~replicas) with
            Config.metrics = reg;
            durability =
              { Config.dur_enabled = durable; dur_interval_ns = Time_ns.ms 2 };
          }
        in
        let sys =
          System.create eng ~cfg
            ~app:(Heron_kv.Kv_app.app ~keys:8 ~partitions ~init:0L)
        in
        System.start sys;
        let completed = ref 0 in
        for c = 0 to clients - 1 do
          let node = System.new_client_node sys ~name:(Printf.sprintf "lh-%d" c) in
          Heron_rdma.Fabric.spawn_on node (fun () ->
              let rec loop () =
                ignore (System.submit sys ~from:node (Heron_kv.Kv_app.Incr_all [ 0; 1 ]));
                incr completed;
                loop ()
              in
              loop ())
        done;
        (* Sample the reference replica's retained update-log length:
           the flat-vs-linear signal, straight from the source. *)
        let series = ref [] in
        let sampler = Heron_rdma.Fabric.add_node (System.fabric sys) ~name:"sampler" in
        Heron_rdma.Fabric.spawn_on sampler (fun () ->
            let rec loop () =
              Engine.sleep (horizon / 16);
              series :=
                Update_log.length
                  (Replica.update_log (System.replica sys ~part:0 ~idx:0))
                :: !series;
              loop ()
            in
            loop ());
        let c name = Heron_obs.Metrics.counter_value (Heron_obs.Metrics.counter reg name) in
        (* Rejoin cost: every byte the bounced follower pulls to catch
           up — state-transfer cells plus replayed multicast backlog. *)
        let rejoin_cost () = c "coord.state_transfer_bytes" + c "mcast.rejoin_replay_bytes" in
        let bounce () =
          Heron_rdma.Fabric.crash (Replica.node (System.replica sys ~part:0 ~idx:2));
          Engine.run_until eng (Engine.now eng + (horizon / 16));
          let before = rejoin_cost () in
          System.restart_replica sys ~part:0 ~idx:2;
          Engine.run_until eng (Engine.now eng + (horizon / 8));
          rejoin_cost () - before
        in
        Engine.run_until eng (Engine.now eng + (horizon / 8));
        let rejoin_early = bounce () in
        Engine.run_until eng (Engine.now eng + (horizon / 2));
        let rejoin_late = bounce () in
        let elapsed = Engine.now eng in
        let tput = float_of_int !completed /. Time_ns.to_s_f elapsed in
        let samples = List.rev !series in
        let max_len = List.fold_left max 0 samples in
        (tput, samples, max_len, rejoin_early, rejoin_late, c "durability.checkpoints")
      in
      let d_tput, d_series, d_max, d_early, d_late, ckpts = run ~durable:true in
      let b_tput, _, b_max, b_early, b_late, _ = run ~durable:false in
      let factor_x100 = if d_max > 0 then 100 * b_max / d_max else 0 in
      let json =
        Heron_obs.Json.Obj
          [
            ("bench", Heron_obs.Json.String "longhaul");
            ("quick", Heron_obs.Json.Bool quick);
            ("durable_tput_tps", Heron_obs.Json.Float d_tput);
            ("baseline_tput_tps", Heron_obs.Json.Float b_tput);
            ( "durable_log_len_series",
              Heron_obs.Json.List (List.map (fun n -> Heron_obs.Json.Int n) d_series) );
            ("durable_max_log_len", Heron_obs.Json.Int d_max);
            ("baseline_max_log_len", Heron_obs.Json.Int b_max);
            ("compaction_factor_x100", Heron_obs.Json.Int factor_x100);
            ("checkpoints", Heron_obs.Json.Int ckpts);
            ("durable_rejoin_early_bytes", Heron_obs.Json.Int d_early);
            ("durable_rejoin_late_bytes", Heron_obs.Json.Int d_late);
            ("baseline_rejoin_early_bytes", Heron_obs.Json.Int b_early);
            ("baseline_rejoin_late_bytes", Heron_obs.Json.Int b_late);
            ("wall_s", Heron_obs.Json.Float (Unix.gettimeofday () -. t0));
          ]
      in
      write_bench "BENCH_longhaul.json" json;
      say
        "longhaul: %.0f tps durable vs %.0f baseline; max log %d vs %d \
         (compaction x%.1f, %d checkpoints); late rejoin %d B durable vs %d B \
         baseline -> BENCH_longhaul.json\n"
        d_tput b_tput d_max b_max
        (float_of_int factor_x100 /. 100.)
        ckpts d_late b_late)

(* {1 Micro-benchmarks (Bechamel)} *)

let micro_tests () =
  let open Bechamel in
  let open Heron_sim in
  let open Heron_core in
  let open Heron_multicast in
  let open Heron_tpcc in
  let eng = Engine.create () in
  let t_engine =
    Test.make ~name:"engine.event"
      (Staged.stage (fun () ->
           Engine.schedule eng (fun () -> ());
           Engine.run eng))
  in
  let pq = Prio_queue.create ~cmp:compare in
  let t_pq =
    Test.make ~name:"prio_queue.push_pop"
      (Staged.stage (fun () ->
           Prio_queue.push pq 42;
           ignore (Prio_queue.pop pq)))
  in
  let tmp = Tstamp.make ~clock:123_456 ~uid:789 in
  let t_tstamp =
    Test.make ~name:"tstamp.pack_unpack"
      (Staged.stage (fun () -> ignore (Tstamp.of_int64 (Tstamp.to_int64 tmp))))
  in
  let store_eng = Engine.create () in
  let fab = Heron_rdma.Fabric.create store_eng ~profile:Heron_rdma.Profile.default in
  let node = Heron_rdma.Fabric.add_node fab ~name:"bench" in
  let store = Versioned_store.create node ~region_size:4096 in
  Versioned_store.register store 1 ~klass:Versioned_store.Registered ~cap:64
    ~init:(Bytes.make 32 'x');
  let counter = ref 0 in
  let payload = Bytes.make 32 'y' in
  let t_store =
    Test.make ~name:"store.set_get"
      (Staged.stage (fun () ->
           incr counter;
           Versioned_store.set store 1 payload
             ~tmp:(Tstamp.make ~clock:!counter ~uid:1);
           ignore (Versioned_store.get store 1)))
  in
  let stock = Gen.make_stock ~w:1 ~i:1 in
  let t_stock =
    Test.make ~name:"tpcc.stock_roundtrip"
      (Staged.stage (fun () -> ignore (Schema.decode_stock (Schema.encode_stock stock))))
  in
  let t_sim_request =
    Test.make ~name:"sim.kv_request_end_to_end"
      (Staged.stage (fun () ->
           let eng = Engine.create () in
           let cfg = Config.default ~partitions:1 ~replicas:3 in
           let sys =
             System.create eng ~cfg
               ~app:(Heron_kv.Kv_app.app ~keys:1 ~partitions:1 ~init:0L)
           in
           System.start sys;
           let client = System.new_client_node sys ~name:"c" in
           Heron_rdma.Fabric.spawn_on client (fun () ->
               ignore (System.submit sys ~from:client (Heron_kv.Kv_app.Put (0, 1L))));
           Engine.run_until eng (Time_ns.ms 1)))
  in
  [ t_engine; t_pq; t_tstamp; t_store; t_stock; t_sim_request ]

let run_micro () =
  timed "micro" (fun () ->
      let open Bechamel in
      let benchmark test =
        let instance = Toolkit.Instance.monotonic_clock in
        let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
        let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
        let ols =
          Analyze.all
            (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
            instance raw
        in
        Hashtbl.iter
          (fun name result ->
            match Analyze.OLS.estimates result with
            | Some [ est ] -> say "  %-36s %12.1f ns/run\n" name est
            | Some _ | None -> say "  %-36s (no estimate)\n" name)
          ols
      in
      say "== Micro-benchmarks (Bechamel, ns per run) ==\n";
      List.iter benchmark (micro_tests ());
      print_newline ())

(* Extract [--metrics FILE] / [--trace FILE] / [--out DIR] /
   [--breakdown] before experiment selection: the remaining args drive
   the [wants] logic below. [--trace] and [--breakdown] apply to the
   coord bench, [--out] to every BENCH_*.json writer. *)
let split_opt flag args =
  let rec go acc = function
    | f :: file :: rest when f = flag -> (Some file, List.rev_append acc rest)
    | [ f ] when f = flag ->
        Printf.eprintf "bench: %s requires an argument\n" flag;
        exit 2
    | a :: rest -> go (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  go [] args

let split_flag flag args =
  (List.mem flag args, List.filter (fun a -> a <> flag) args)

(* Every name the selection below understands ([quick] is a modifier). *)
let experiments =
  [
    "quick"; "fig4"; "fig5"; "fig6"; "fig7"; "table1"; "fig8"; "ablations";
    "micro_kv"; "coord"; "pipeline"; "reads"; "reconfig"; "elastic"; "longhaul";
    "micro";
  ]

let dump_metrics file =
  let snap = Heron_obs.Metrics.(snapshot default) in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Heron_obs.Json.to_channel oc (Heron_obs.Metrics.to_json snap);
      output_char oc '\n');
  say "metrics written to %s (%d series)\n" file (List.length snap)

let () =
  let metrics_file, args = split_opt "--metrics" (List.tl (Array.to_list Sys.argv)) in
  let trace_file, args = split_opt "--trace" args in
  let out, args = split_opt "--out" args in
  Option.iter
    (fun dir ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then begin
        Printf.eprintf "bench: --out %s is not a directory\n" dir;
        exit 2
      end;
      out_dir := dir)
    out;
  let breakdown, args = split_flag "--breakdown" args in
  (match List.filter (fun a -> not (List.mem a experiments)) args with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown experiment %s; valid names: %s\n"
        (String.concat ", " unknown)
        (String.concat " " experiments);
      exit 2);
  let quick = List.mem "quick" args in
  let wants name = args = [] || args = [ "quick" ] || List.mem name args in
  let t0 = Unix.gettimeofday () in
  if wants "fig4" then run_fig4 ~quick;
  if wants "fig5" then run_fig5 ~quick;
  if wants "fig6" then run_fig6 ~quick;
  if wants "fig7" then run_fig7 ~quick;
  if wants "table1" then run_table1 ~quick;
  if wants "fig8" then run_fig8 ~quick;
  if wants "ablations" then run_ablations ~quick;
  if wants "micro_kv" then run_micro_kv ~quick;
  if List.mem "coord" args then run_coord ~quick ~breakdown ~trace_file;
  if List.mem "pipeline" args then run_pipeline ~quick;
  if List.mem "reads" args then run_reads ~quick ~breakdown;
  if List.mem "reconfig" args then run_reconfig ~quick;
  if List.mem "elastic" args then run_elastic ~quick;
  if List.mem "longhaul" args then run_longhaul ~quick;
  if wants "micro" then run_micro ();
  Option.iter dump_metrics metrics_file;
  say "total wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
