(* perfbench: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs one untraced pass per sub-seed of the seed, then
   repeats them until S wall seconds have passed (at least once), and
   reports the end-to-end metrics: wall-clock figures over all passes,
   and virtual-clock figures pooled over the distinct sub-seeds, which
   every repeat must reproduce bit for bit.

   --trace 1 runs one untraced and one traced pass of the first
   sub-seed (request tracing,
   app-callback timers, signal sampling), checks that both produce the
   same virtual-clock results and registry counts, reruns the layers
   in isolation and reports the per-layer metrics.

   The last line of stdout is the JSON result; progress goes to stderr. *)

open Perfbench
module M = Heron_obs.Metrics

let chaos_seeds = 8
let rerun_window = Heron_sim.Time_ns.ms 10
let verb_count = 200_000

exception Bench_error of string

let errorf fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt

(* {1 Registry readings} *)

let counter snap name =
  List.fold_left
    (fun acc e ->
      match e.M.e_value with
      | M.Counter_v v when e.M.e_name = name -> acc + v
      | _ -> acc)
    0 snap

let hist snap name =
  List.fold_left
    (fun acc e ->
      match (acc, e.M.e_value) with
      | None, M.Histogram_v h when e.M.e_name = name -> Some h
      | _ -> acc)
    None snap

let hist_mean snap name =
  match hist snap name with
  | Some h when h.M.hs_count > 0 ->
      float_of_int h.M.hs_sum /. float_of_int h.M.hs_count
  | _ -> 0.

let same_virtual ~what (a : Load.pass) (b : Load.pass) =
  let fa = a.Load.fingerprint and fb = b.Load.fingerprint in
  if List.length fa <> List.length fb then
    errorf "determinism: %s has %d virtual results, expected %d" what (List.length fb)
      (List.length fa);
  List.iter2
    (fun (na, va) (nb, vb) ->
      if na <> nb then errorf "determinism: %s reports %s where %s was expected" what nb na;
      if va <> vb then errorf "determinism: %s changed virtual result %s" what na)
    fa fb

(* {1 End-to-end metrics} *)

let us ns = float_of_int ns /. 1e3

let mean_us a =
  if Array.length a = 0 then errorf "no latency samples";
  us (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)

let guarded ~what a p =
  match Bstats.guarded_percentile ~what a p with
  | Ok v -> us v
  | Error e -> errorf "sample guard: %s" e

(* A pass's wall time at the reference host speed ([Calib]). *)
let normalised f (p : Load.pass) = Calib.normalise ~slowness:p.Load.slowness (f p)

(* Virtual-clock figures pool the samples of the distinct sub-seed
   passes. Wall-clock figures cover every pass, each scaled to the
   reference host speed by the host-speed samples of its own window:
   the window rate is total requests over total window time, which
   averages the host's noise over all the time measured; set-up, short
   and spiky, is a median. *)
let end_to_end ~distinct ~passes =
  let fsum f = List.fold_left (fun acc p -> acc +. f p) 0. passes in
  let pooled f = Bstats.pool (List.map f distinct) in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 distinct in
  let latency = pooled (fun p -> p.Load.latency) in
  [
    ( "wall_req_per_s",
      fsum (fun p -> float_of_int p.Load.window_reqs)
      /. fsum (normalised (fun p -> p.Load.window_s)),
      "req/s" );
    ( "run_wall_s",
      fsum (normalised (fun p -> p.Load.total_s)) /. float_of_int (List.length passes),
      "s" );
    ("setup_s", Bstats.median_f (List.map (normalised (fun p -> p.Load.setup_s)) passes), "s");
    ("peak_rss_mb", Host.peak_rss_mb (), "MB");
    ( "tput_tps",
      float_of_int (sum (fun p -> p.Load.window_reqs))
      /. Heron_sim.Time_ns.to_s_f (sum (fun p -> p.Load.window_ns)),
      "req/s" );
    ("lat_mean_us", mean_us latency, "us");
    ("lat_p99_us", guarded ~what:"latency" latency 99., "us");
    ("read_p99_us", guarded ~what:"read latency" (pooled (fun p -> p.Load.reads)) 99., "us");
    ("write_p99_us", guarded ~what:"write latency" (pooled (fun p -> p.Load.writes)) 99., "us");
  ]

(* {1 Per-layer metrics} *)

let stages =
  [ "request"; "ordering"; "mcast.order"; "mcast.commit"; "phase2"; "conflict-wait";
    "execute"; "phase4"; "batch.wait"; "exec.queue"; "read.local"; "redirect";
    "state-transfer" ]

let verb_mix snap =
  List.map
    (fun kind ->
      let pick name =
        List.fold_left
          (fun acc e ->
            match e.M.e_value with
            | M.Counter_v v
              when e.M.e_name = name && List.assoc_opt "verb" e.M.e_labels = Some kind ->
                acc + v
            | _ -> acc)
          0 snap
      in
      let n =
        pick "rdma.verb.count"
        + if kind = "write_post" then counter snap "rdma.doorbell.coalesced" else 0
      in
      (kind, n, if n = 0 then 0 else pick "rdma.verb.bytes" / n))
    [ "read"; "write"; "write_post"; "cas"; "transfer" ]

let per_layer ~(w : Workloads.t) ~seed ~(plain : Load.pass) ~(traced : Load.pass) =
  let pr = Option.get traced.Load.probe in
  let snap = traced.Load.window_snap in
  let reqs = float_of_int (max 1 traced.Load.window_reqs) in
  let per name = float_of_int (counter snap name) /. reqs in
  let attempted = float_of_int (max 1 traced.Load.attempted) in
  let mcast_us = Layers.multicast_us ~seed ~w ~measure:rerun_window in
  let null_us = Layers.null_app_us ~seed ~w ~measure:rerun_window in
  let chaos_ms, chaos_failures = Layers.chaos ~seed ~seeds:chaos_seeds in
  let traces = float_of_int (max 1 pr.Load.p_traces) in
  let stage_mean s =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt pr.Load.p_stage_ns s)) /. traces /. 1e3
  in
  let stage_sum =
    Hashtbl.fold (fun _ ns acc -> acc +. (float_of_int ns /. traces /. 1e3)) pr.Load.p_stage_ns 0.
  in
  let served = counter snap "reads.local_served" and missed = counter snap "reads.lease_miss" in
  let commit_wait_p99 =
    match hist snap "reads.invalidation_ns" with
    | None -> 0.
    | Some h when h.M.hs_count = 0 -> 0.
    | Some h ->
        let n = h.M.hs_count in
        if n - Bstats.rank ~n 99. < Bstats.min_beyond then
          errorf "sample guard: commit-wait p99 rests on %d samples" n;
        us h.M.hs_p99
  in
  let final = traced.Load.final_snap in
  let metrics =
    [
      ("app.self_us_per_req", float_of_int pr.Load.p_app.Appwrap.exec_ns /. 1e3 /. attempted, "us");
      ("app.route_us_per_req", float_of_int pr.Load.p_app.Appwrap.route_ns /. 1e3 /. attempted, "us");
      ("multicast.wall_us_per_msg", mcast_us, "us");
      ("coord.wall_us_per_req", Layers.coord_us ~null_us ~mcast_us, "us");
      ("rdma.wall_ns_per_verb", Layers.rdma_ns_per_verb ~mix:(verb_mix snap) ~n:verb_count, "ns");
      ( "sim.parked_per_signal_mean",
        float_of_int pr.Load.p_parked /. float_of_int (max 1 pr.Load.p_samples),
        "count" );
      ("chaos.wall_ms_per_seed", chaos_ms, "ms");
      ("bench.self_us_per_req", float_of_int pr.Load.p_bench_ns /. 1e3 /. attempted, "us");
      ("gc.minor_words_per_req", pr.Load.p_minor /. reqs, "words");
      ("gc.major_words_per_req", pr.Load.p_major /. reqs, "words");
      ( "host.cpu_wall_ratio",
        plain.Load.window_cpu_s /. (plain.Load.window_s +. plain.Load.calib_s),
        "ratio" );
      ("host.slowness", plain.Load.slowness, "ratio");
      ( "host.raw_wall_req_per_s",
        float_of_int plain.Load.window_reqs /. plain.Load.window_s,
        "req/s" );
      ( "tracing.overhead_pct",
        (let window = normalised (fun p -> p.Load.window_s) in
         (window traced -. window plain) /. window plain *. 100.),
        "%" );
      ( "rdma.verbs_per_req",
        float_of_int (List.fold_left (fun acc (_, n, _) -> acc + n) 0 (verb_mix snap)) /. reqs,
        "count" );
      ("rdma.bytes_per_req", per "rdma.verb.bytes", "B");
      ("rdma.doorbells_per_req", per "rdma.verb.count", "count");
      ("multicast.deliveries_per_req", per "mcast.deliveries", "count");
      ("multicast.ts_rounds_per_req", per "mcast.timestamp_rounds", "count");
      ("coord.slot_reads_per_req", per "coord.slot_reads", "count");
      ("replica.executed_per_req", per "replica.executed", "count");
      ("store.dual_version_miss_per_req", per "store.dual_version_miss", "count");
      ( "sched.conflict_blocked_ratio",
        (let probes = counter snap "sched.conflict_probes" in
         if probes = 0 then 0.
         else float_of_int (counter snap "sched.conflict_blocked") /. float_of_int probes),
        "ratio" );
      ("pipeline.batch_occupancy_mean", hist_mean snap "pipeline.batch_occupancy", "count");
      ( "reads.local_fraction",
        (if served + missed = 0 then 0.
         else float_of_int served /. float_of_int (served + missed)),
        "ratio" );
      ("reads.lease_miss_per_req", per "reads.lease_miss", "count");
      ("reads.commit_wait_p99_us", commit_wait_p99, "us");
      ("durability.checkpoints", float_of_int (counter final "durability.checkpoints"), "count");
      ( "durability.max_log_len",
        (match hist final "durability.log_len" with Some h -> float_of_int h.M.hs_max | None -> 0.),
        "count" );
      ( "recovery.bytes",
        float_of_int
          (counter final "coord.state_transfer_bytes" + counter final "mcast.rejoin_replay_bytes"),
        "B" );
      ("coord.state_transfers", float_of_int (counter final "coord.state_transfers"), "count");
      ("topology.splits", float_of_int (counter final "topology.splits"), "count");
      ( "recovery.catchup_us",
        (if traced.Load.catchup_ns < 0 then 0. else us traced.Load.catchup_ns),
        "us" );
      ("reconfig.redirects_per_req", per "reconfig.redirects", "count");
      ("window.requests", float_of_int traced.Load.window_reqs, "count");
      ("window.reads", float_of_int (Array.length traced.Load.reads), "count");
      ("window.writes", float_of_int (Array.length traced.Load.writes), "count");
      ("window.lat_mean_us", mean_us traced.Load.latency, "us");
      ("window.lat_p50_us", guarded ~what:"latency" traced.Load.latency 50., "us");
    ]
    @ List.map (fun s -> (Printf.sprintf "stage.%s.mean_us" s, stage_mean s, "us")) stages
    @ [ ("stage.mean_sum_us", stage_sum, "us") ]
  in
  (metrics, chaos_failures)

(* {1 Driver} *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           if not (Float.is_finite v) then errorf "metric %s is not finite" name;
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let report_problems (p : Load.pass) =
  List.iter (fun e -> Printf.eprintf "  failure: %s\n%!" e) p.Load.problems

let pass (w : Workloads.t) ~seed ~traced =
  Gc.compact ();
  let p = w.Workloads.pass ~seed ~traced in
  Printf.eprintf
    "perfbench %s seed %d%s: setup %.3fs window %.3fs (%d req, %.0f req/s wall) pass %.3fs, slowness %.3f, %d/%d failed\n%!"
    w.Workloads.name seed
    (if traced then " traced" else "")
    p.Load.setup_s p.Load.window_s p.Load.window_reqs
    (float_of_int p.Load.window_reqs /. p.Load.window_s)
    p.Load.total_s p.Load.slowness p.Load.failed p.Load.attempted;
  report_problems p;
  p

let run_untraced (w : Workloads.t) ~seed ~seconds =
  let t0 = Host.now_ns () in
  let seeds = Array.init w.Workloads.subseeds (Workloads.subseed ~seed) in
  let distinct = Array.map (fun s -> pass w ~seed:s ~traced:false) seeds in
  (* Repeat the sub-seeds in turn until the time is up (at least once):
     every repeat must reproduce its first pass bit for bit. *)
  let rec repeat acc k =
    let i = k mod Array.length seeds in
    let p = pass w ~seed:seeds.(i) ~traced:false in
    same_virtual ~what:(Printf.sprintf "repeat of sub-seed %d" seeds.(i)) distinct.(i) p;
    (* Only the wall-clock readings of a repeat are kept. *)
    let p = { p with Load.latency = [||]; reads = [||]; writes = [||] } in
    if Host.seconds_since t0 >= seconds then p :: acc else repeat (p :: acc) (k + 1)
  in
  let distinct = Array.to_list distinct in
  let passes = distinct @ repeat [] 0 in
  let attempted = List.fold_left (fun a p -> a + p.Load.attempted) 0 passes in
  let failed = List.fold_left (fun a p -> a + p.Load.failed) 0 passes in
  let cpu = List.fold_left (fun a p -> a +. p.Load.window_cpu_s) 0. passes in
  let wall = List.fold_left (fun a p -> a +. p.Load.window_s +. p.Load.calib_s) 0. passes in
  Printf.eprintf "perfbench %s: %d passes, window cpu/wall %.3f\n%!" w.Workloads.name
    (List.length passes) (cpu /. wall);
  (attempted, failed, end_to_end ~distinct ~passes)

let run_traced w ~seed =
  let seed = Workloads.subseed ~seed 0 in
  let plain = pass w ~seed ~traced:false in
  let traced = pass w ~seed ~traced:true in
  same_virtual ~what:"traced pass" plain traced;
  let metrics, chaos_failures = per_layer ~w ~seed ~plain ~traced in
  List.iter (fun e -> Printf.eprintf "  failure: %s\n%!" e) chaos_failures;
  let n_chaos = List.length chaos_failures in
  ( plain.Load.attempted + traced.Load.attempted + chaos_seeds,
    plain.Load.failed + traced.Load.failed + n_chaos,
    metrics )

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S wall seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match Workloads.find !workload with
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
      exit 2
  | Some w -> (
      try
        let attempted, failed, metrics =
          if !trace = 0 then run_untraced w ~seed:!seed ~seconds:!seconds
          else run_traced w ~seed:!seed
        in
        print_result ~correct:(failed = 0) ~attempted ~failed metrics
      with Bench_error e ->
        Printf.eprintf "perfbench %s: error: %s\n%!" w.Workloads.name e;
        exit 1)
