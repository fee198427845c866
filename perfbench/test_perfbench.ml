(* Tests of the benchmark's own arithmetic: percentiles and pooling,
   the app wrapper's self-time accounting, and the coordination-cost
   subtraction. *)

open Perfbench

let ints = Alcotest.(array int)

let test_percentile () =
  let a = Bstats.sorted (List.init 100 (fun i -> 100 - i)) in
  Alcotest.(check int) "p50 of 1..100" 50 (Bstats.percentile a 50.);
  Alcotest.(check int) "p99 of 1..100" 99 (Bstats.percentile a 99.);
  Alcotest.(check int) "p100 is the max" 100 (Bstats.percentile a 100.);
  Alcotest.(check int) "p0 is the min" 1 (Bstats.percentile a 0.);
  Alcotest.(check int) "single sample" 7 (Bstats.percentile [| 7 |] 99.)

let test_guard () =
  let n_ok = Bstats.sorted (List.init 1000 Fun.id) in
  (match Bstats.guarded_percentile ~what:"x" n_ok 99. with
  | Ok v -> Alcotest.(check int) "p99 of 0..999" 989 v
  | Error e -> Alcotest.fail e);
  let short = Bstats.sorted (List.init 999 Fun.id) in
  (match Bstats.guarded_percentile ~what:"x" short 99. with
  | Ok _ -> Alcotest.fail "p99 over 999 samples has only 9 beyond it"
  | Error _ -> ());
  (match Bstats.guarded_percentile ~what:"x" [||] 50. with
  | Ok _ -> Alcotest.fail "no samples"
  | Error _ -> ());
  match Bstats.guarded_percentile ~what:"x" (Bstats.sorted (List.init 20 Fun.id)) 50. with
  | Ok v -> Alcotest.(check int) "p50 of 20 has 10 beyond" 9 v
  | Error e -> Alcotest.fail e

let test_pool () =
  let pooled = Bstats.pool [ [| 5; 1 |]; [||]; [| 3; 2; 4 |] ] in
  Alcotest.check ints "pooled and sorted" [| 1; 2; 3; 4; 5 |] pooled;
  Alcotest.(check int) "pooled p50" 3 (Bstats.percentile pooled 50.);
  Alcotest.(check (float 1e-9)) "median of odd" 2. (Bstats.median_f [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "median of even" 2.5 (Bstats.median_f [ 4.; 1.; 3.; 2. ])

(* A fake clock: application code advances it by what it "spends";
   [ctx_charge] advances it by a large amount, standing for the other
   fibers that run while the callback is parked. *)
let test_app_self_time () =
  let clock = ref 0 in
  let now () = !clock in
  let spend n = clock := !clock + n in
  let app =
    {
      Heron_harness.Driver.null_app with
      Heron_core.App.read_set =
        (fun _ ->
          spend 3;
          []);
      execute =
        (fun ctx _ ->
          spend 5;
          ctx.Heron_core.App.ctx_charge 100;
          spend 7;
          ignore (ctx.Heron_core.App.ctx_read (Heron_core.Oid.of_int 1));
          spend 11);
    }
  in
  let ctx =
    {
      Heron_core.App.ctx_partition = 0;
      ctx_tmp = Heron_multicast.Tstamp.zero;
      ctx_read =
        (fun _ ->
          spend 2000;
          Bytes.empty);
      ctx_read_opt = (fun _ -> None);
      ctx_is_local = (fun _ -> true);
      ctx_write = (fun _ _ -> ());
      ctx_charge = (fun _ -> spend 1000);
    }
  in
  let t = Appwrap.create () in
  let wrapped = Appwrap.wrap ~now t app in
  let req = { Heron_harness.Driver.nr_dst = [ 0 ]; nr_bytes = 8 } in
  wrapped.Heron_core.App.execute ctx req;
  Alcotest.(check int) "suspending ctx calls are not charged to app" 23 t.Appwrap.exec_ns;
  ignore (wrapped.Heron_core.App.read_set req);
  Alcotest.(check int) "routing callbacks are timed whole" 3 t.Appwrap.route_ns;
  let failing = Appwrap.wrap ~now t { app with execute = (fun _ _ -> spend 4; failwith "boom") } in
  (match failing.Heron_core.App.execute ctx req with
  | () -> Alcotest.fail "expected the callback's exception"
  | exception Failure _ -> ());
  Alcotest.(check int) "a raising callback is still accounted" 27 t.Appwrap.exec_ns

let test_coord_subtraction () =
  Alcotest.(check (float 1e-9)) "null-app minus multicast-only" 20.
    (Layers.coord_us ~null_us:50. ~mcast_us:30.);
  let w = Workloads.Kv.workload in
  let measure = Heron_sim.Time_ns.us 200 in
  let mcast = Layers.multicast_us ~seed:1 ~w ~measure in
  let null = Layers.null_app_us ~seed:1 ~w ~measure in
  Alcotest.(check bool) "multicast-only rerun completes" true (mcast > 0.);
  Alcotest.(check bool) "null-app rerun completes" true (null > 0.)

(* The host-speed kernel must cost the same whatever the simulator's
   heap holds, so it may not allocate. *)
let test_calib_kernel () =
  let t = Calib.create () in
  Calib.sample t;
  let before = Gc.minor_words () in
  for _ = 1 to 20 do
    Calib.sample t
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "kernel allocates nothing (%.0f words)" words) true
    (words < 16.);
  Alcotest.(check int) "samples counted" 21 t.Calib.calls

let test_calib_normalise () =
  let t = { Calib.ns = 3 * Calib.reference_ns * 6 / 5; calls = 3 } in
  let slowness = Calib.slowness t in
  Alcotest.(check (float 1e-9)) "mean kernel time over the reference" 1.2 slowness;
  Alcotest.(check (float 1e-9)) "wall time at the reference speed" 10.
    (Calib.normalise ~slowness 12.);
  Alcotest.check_raises "no samples" (Invalid_argument "Calib.slowness: no samples")
    (fun () -> ignore (Calib.slowness (Calib.create ())))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "sample guard" `Quick test_guard;
          Alcotest.test_case "pooling and medians" `Quick test_pool;
        ] );
      ( "calib",
        [
          Alcotest.test_case "kernel allocates nothing" `Quick test_calib_kernel;
          Alcotest.test_case "normalisation" `Quick test_calib_normalise;
        ] );
      ("appwrap", [ Alcotest.test_case "self time" `Quick test_app_self_time ]);
      ("layers", [ Alcotest.test_case "coordination subtraction" `Quick test_coord_subtraction ]);
    ]
