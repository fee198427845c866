(* One pass of a workload against a Heron deployment: set-up, warm-up,
   a measured window of virtual time, optional ramp and follower
   bounce, drain, settle and checks.

   Clients are closed-loop simulator fibers (one outstanding request
   each), all in this process's single domain. Every response is
   checked; after the drain every replica must agree with its peers and
   pass [Replica.check_invariants ~quiescent:true]. *)

open Heron_sim
open Heron_core
module M = Heron_obs.Metrics

(* Crash one follower [at] after the window's start and restart it
   [down] later. *)
type bounce = { b_part : int; b_idx : int; b_at : Time_ns.t; b_down : Time_ns.t }

type ('req, 'resp) spec = {
  clients : int;  (** closed-loop clients at start *)
  ramp : (Time_ns.t * int) list;
      (** (offset from the window's start, clients added then) *)
  warmup : Time_ns.t;
  window : Time_ns.t;
  bounce : bounce option;
  gen : client:int -> Random.State.t -> 'req;
  check : 'req -> (int * 'resp) list -> (unit, string) result;
      (** judges one response, called when it arrives *)
  on_drain : unit -> unit;  (** called when clients stop issuing *)
  final_check : ('req, 'resp) System.t -> (unit, string) result;
      (** judges the drained, settled deployment *)
}

(* What [build] needs to produce a traced or untraced deployment. *)
type env = {
  e_metrics : M.t;
  e_reqtrace : Heron_obs.Reqtrace.t option;
  e_wrap : 'req 'resp. ('req, 'resp) App.t -> ('req, 'resp) App.t;
}

(* Host-side readings of a traced pass. *)
type probe = {
  p_app : Appwrap.t;
  mutable p_bench_ns : int;  (** request generation and checking *)
  mutable p_minor : float;  (** words allocated over the window *)
  mutable p_major : float;
  mutable p_parked : int;  (** sum of sampled [Signal.waiters] *)
  mutable p_samples : int;  (** signal samples taken *)
  p_stage_ns : (string, int) Hashtbl.t;  (** critical-path ns per stage *)
  mutable p_traces : int;  (** client request trees harvested *)
}

type pass = {
  setup_s : float;  (** wall: catalog generation, create, start *)
  total_s : float;  (** wall: the whole pass, checks included *)
  window_s : float;  (** wall: the measured window, host-speed samples excluded *)
  window_cpu_s : float;  (** process CPU time over the window, samples included *)
  calib_s : float;  (** wall spent in host-speed samples within the window *)
  slowness : float;  (** host slowness over the window ([Calib.slowness]) *)
  window_ns : Time_ns.t;  (** virtual length of the window *)
  window_reqs : int;
  attempted : int;
  failed : int;
  problems : string list;  (** the first few failures, for stderr *)
  latency : int array;  (** window latencies, sorted, ns: reads and writes pooled *)
  reads : int array;  (** of [App.read_only] requests *)
  writes : int array;
  catchup_ns : int;  (** restart to applied-the-leader's-frontier *)
  fingerprint : (string * string) list;  (** every virtual-clock result *)
  window_snap : M.snapshot;  (** registry delta over the window; traced only *)
  final_snap : M.snapshot;  (** registry at the end of the pass; traced only *)
  probe : probe option;
}

(* Every virtual-clock result of a pass, exactly: the guard a pure
   simulator speed-up must leave untouched. Registry series are summed
   per metric name so a mismatch can be named, and every labelled
   series is covered by one digest. Request-trace series exist only in
   a traced pass and are left out. *)
let fingerprint ~window_reqs ~attempted ~failed ~catchup_ns ~latency ~reads snap =
  let digest_ints a =
    Digest.to_hex (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int a))))
  in
  let snap =
    List.filter
      (fun e -> not (String.length e.M.e_name >= 4 && String.sub e.M.e_name 0 4 = "req."))
      snap
  in
  let value e =
    match e.M.e_value with
    | M.Counter_v v | M.Gauge_v v -> (v, 0, 0)
    | M.Histogram_v h -> (h.M.hs_count, h.M.hs_sum, h.M.hs_max)
  in
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let a, b, c = value e in
      let a0, b0, c0 = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_name e.M.e_name) in
      Hashtbl.replace by_name e.M.e_name (a0 + a, b0 + b, max c0 c))
    snap;
  let labelled =
    String.concat ";"
      (List.map
         (fun e ->
           let a, b, c = value e in
           Printf.sprintf "%s%s=%d/%d/%d" e.M.e_name
             (String.concat "" (List.map (fun (k, v) -> "," ^ k ^ "=" ^ v) e.M.e_labels))
             a b c)
         snap)
  in
  [
    ("window.requests", string_of_int window_reqs);
    ("attempted", string_of_int attempted);
    ("failed", string_of_int failed);
    ("catchup_ns", string_of_int catchup_ns);
    ("latency", digest_ints latency);
    ("reads", digest_ints reads);
  ]
  @ List.sort compare
      (Hashtbl.fold
         (fun name (a, b, c) acc -> (name, Printf.sprintf "%d/%d/%d" a b c) :: acc)
         by_name [])
  @ [ ("registry.labelled", Digest.to_hex (Digest.string labelled)) ]

let max_problems = 8

(* Every live replica of a partition holds the same latest value of
   every object the first live replica holds. *)
let agreement sys =
  let problem = ref None in
  Array.iteri
    (fun p row ->
      match
        List.filter
          (fun r -> Heron_rdma.Fabric.is_alive (Replica.node r))
          (Array.to_list row)
      with
      | [] -> problem := Some (Printf.sprintf "partition %d has no live replica" p)
      | first :: rest ->
          let st = Replica.store first in
          let oids =
            Versioned_store.registered_oids st @ Versioned_store.local_oids st
          in
          List.iter
            (fun r ->
              let other = Replica.store r in
              List.iter
                (fun oid ->
                  if
                    !problem = None
                    && not
                         (Versioned_store.mem other oid
                         && Bytes.equal
                              (fst (Versioned_store.get st oid))
                              (fst (Versioned_store.get other oid)))
                  then
                    problem :=
                      Some
                        (Printf.sprintf "partition %d: replica %d disagrees on oid %d"
                           p (Replica.idx r) (Oid.to_int oid)))
                oids)
            rest)
    (System.replicas sys);
  match !problem with None -> Ok () | Some e -> Error e

let invariants sys =
  Array.fold_left
    (fun acc row ->
      Array.fold_left
        (fun acc r ->
          match acc with
          | Error _ -> acc
          | Ok () when not (Heron_rdma.Fabric.is_alive (Replica.node r)) -> acc
          | Ok () -> (
              match Replica.check_invariants ~quiescent:true r with
              | Ok () -> acc
              | Error e ->
                  Error
                    (Printf.sprintf "replica %d/%d invariant: %s" (Replica.part r)
                       (Replica.idx r) e)))
        acc row)
    (Ok ()) (System.replicas sys)

(* The window runs in this many equal slices of virtual time, with a
   host-speed sample after each. Running the engine to a horizon in
   steps leaves the order of its events unchanged. *)
let slices = 20

let drain_deadline = Time_ns.ms 200
let settle = Time_ns.ms 5
let signal_sample_every = Time_ns.us 5
let trace_poll_every = Time_ns.us 100
let trace_ring = 4096

(* Mean parked fibers per node memory signal, sampled through the
   window: the wakeups one landed remote write causes. *)
let sample_signals pr sys ~until =
  let eng = System.engine sys in
  let fab = System.fabric sys in
  let nodes = List.init (Heron_rdma.Fabric.node_count fab) (Heron_rdma.Fabric.find_node fab) in
  let rec sample () =
    if Engine.now eng < until then begin
      List.iter
        (fun n ->
          pr.p_parked <- pr.p_parked + Signal.waiters (Heron_rdma.Fabric.mem_signal n);
          pr.p_samples <- pr.p_samples + 1)
        nodes;
      Engine.schedule ~delay:signal_sample_every eng sample
    end
  in
  sample ()

(* Critical-path stage totals of the client requests finished in the
   window. The collector's ring is read every [trace_poll_every]; trees
   minted by replicas (checkpoint rounds) or by the rebalancer carry no
   [client] attribute and are left out, so the stage means add up to
   the mean client latency. *)
let harvest_stages pr col eng ~until =
  let seen = ref (Heron_obs.Reqtrace.finished col) in
  let rec poll () =
    let finished = Heron_obs.Reqtrace.finished col in
    let fresh = finished - !seen in
    if fresh > trace_ring then failwith "perfbench: request-trace ring overflowed";
    let ring = Heron_obs.Reqtrace.completed col in
    let skip = List.length ring - fresh in
    List.iteri
      (fun i (tree : Heron_obs.Reqtrace.tree) ->
        if i >= skip && List.mem_assoc "client" tree.tr_root.rs_attrs
        then begin
          pr.p_traces <- pr.p_traces + 1;
          match Heron_obs.Reqtrace.nest tree.tr_spans with
          | None -> ()
          | Some node ->
              List.iter
                (fun (stage, ns) ->
                  Hashtbl.replace pr.p_stage_ns stage
                    (ns + Option.value ~default:0 (Hashtbl.find_opt pr.p_stage_ns stage)))
                (Heron_obs.Reqtrace.breakdown (Heron_obs.Reqtrace.critical_segments node))
        end)
      ring;
    seen := finished;
    if Engine.now eng < until then Engine.schedule ~delay:trace_poll_every eng poll
  in
  Engine.schedule ~delay:trace_poll_every eng poll

let run ~seed ~(build : env -> ('req, 'resp) System.t) ~(spec : ('req, 'resp) spec)
    ~traced () =
  let t_pass = Host.now_ns () in
  let probe =
    if traced then
      Some
        {
          p_app = Appwrap.create ();
          p_bench_ns = 0;
          p_minor = 0.;
          p_major = 0.;
          p_parked = 0;
          p_samples = 0;
          p_stage_ns = Hashtbl.create 16;
          p_traces = 0;
        }
    else None
  in
  let metrics = M.create () in
  let env =
    match probe with
    | None -> { e_metrics = metrics; e_reqtrace = None; e_wrap = Fun.id }
    | Some pr ->
        let col = Heron_obs.Reqtrace.create ~ring:trace_ring () in
        Heron_obs.Reqtrace.attach_metrics col metrics;
        {
          e_metrics = metrics;
          e_reqtrace = Some col;
          e_wrap = (fun app -> Appwrap.wrap pr.p_app app);
        }
  in
  let sys = build env in
  let setup_s = Host.seconds_since t_pass in
  let eng = System.engine sys in
  let read_only = (System.app sys).App.read_only in
  let bench_time f =
    match probe with
    | None -> f ()
    | Some pr ->
        let t0 = Host.now_ns () in
        let r = f () in
        pr.p_bench_ns <- pr.p_bench_ns + (Host.now_ns () - t0);
        r
  in
  let w_start = Engine.now eng + spec.warmup in
  let w_end = w_start + spec.window in
  let stop = ref false in
  let attempted = ref 0 and failed = ref 0 and outstanding = ref 0 in
  let problems = ref [] in
  let fail msg =
    incr failed;
    if List.length !problems < max_problems then problems := msg :: !problems
  in
  let reads = ref [] and writes = ref [] in
  let window_reqs = ref 0 in
  let spawn_client c =
    let rng = Random.State.make [| seed; c; 0xBE7C |] in
    let node = System.new_client_node sys ~name:(Printf.sprintf "pb-client-%d" c) in
    Heron_rdma.Fabric.spawn_on node (fun () ->
        while not !stop do
          let req = bench_time (fun () -> spec.gen ~client:c rng) in
          incr attempted;
          incr outstanding;
          let t0 = Engine.self_now () in
          let resps = System.submit sys ~from:node req in
          let t1 = Engine.self_now () in
          decr outstanding;
          bench_time (fun () ->
              (match spec.check req resps with Ok () -> () | Error e -> fail e);
              if t1 >= w_start && t1 < w_end then begin
                incr window_reqs;
                if read_only req then reads := (t1 - t0) :: !reads
                else writes := (t1 - t0) :: !writes
              end)
        done)
  in
  for c = 0 to spec.clients - 1 do
    spawn_client c
  done;
  (* Catch-up probe: after the restart, poll the restarted replica's
     applied frontier every 100 simulated ns. Read-only callbacks
     never reorder the simulation's own events. *)
  let catchup_ns = ref (-1) in
  let bounce b =
    Heron_rdma.Fabric.crash (Replica.node (System.replica sys ~part:b.b_part ~idx:b.b_idx));
    Engine.schedule ~delay:b.b_down eng (fun () ->
        let frontier = Replica.last_applied (System.replica sys ~part:b.b_part ~idx:0) in
        let t_restart = Engine.now eng in
        System.restart_replica sys ~part:b.b_part ~idx:b.b_idx;
        let rec poll () =
          let r = System.replica sys ~part:b.b_part ~idx:b.b_idx in
          if Heron_multicast.Tstamp.compare (Replica.last_applied r) frontier >= 0 then
            catchup_ns := Engine.now eng - t_restart
          else Engine.schedule ~delay:100 eng poll
        in
        poll ())
  in
  let marks =
    List.sort compare
      (List.map (fun b -> (b.b_at, `Bounce b)) (Option.to_list spec.bounce)
      @ List.map (fun (at, n) -> (at, `Ramp n)) spec.ramp)
  in
  let next_client = ref spec.clients in
  let act = function
    | `Bounce b -> bounce b
    | `Ramp n ->
        for _ = 1 to n do
          spawn_client !next_client;
          incr next_client
        done
  in
  Engine.run_until eng w_start;
  let snap0 = if traced then M.snapshot metrics else [] in
  (match (probe, env.e_reqtrace) with
  | Some pr, Some col ->
      sample_signals pr sys ~until:w_end;
      harvest_stages pr col eng ~until:w_end
  | _ -> ());
  let gc0 = Host.gc_words () and cpu0 = Host.cpu_s () in
  let calib = Calib.create () in
  let t_window = Host.now_ns () in
  let marks = ref marks in
  for i = 1 to slices do
    let until = w_start + (spec.window * i / slices) in
    let rec due () =
      match !marks with
      | (at, a) :: rest when w_start + at <= until ->
          Engine.run_until eng (w_start + at);
          act a;
          marks := rest;
          due ()
      | _ -> ()
    in
    due ();
    Engine.run_until eng until;
    Calib.sample calib
  done;
  let calib_s = float_of_int calib.Calib.ns /. 1e9 in
  let window_s = Host.seconds_since t_window -. calib_s in
  let window_cpu_s = Host.cpu_s () -. cpu0 in
  (match probe with
  | None -> ()
  | Some pr ->
      let minor1, major1 = Host.gc_words () in
      pr.p_minor <- minor1 -. fst gc0;
      pr.p_major <- major1 -. snd gc0);
  let window_snap = if traced then M.diff ~before:snap0 ~after:(M.snapshot metrics) else [] in
  (* Drain: clients stop issuing; every outstanding request must be
     answered, and a bounced follower must have caught up, before the
     deadline. *)
  let recovered () = spec.bounce = None || !catchup_ns >= 0 in
  let drain_end = Engine.now eng + drain_deadline in
  stop := true;
  spec.on_drain ();
  while (!outstanding > 0 || not (recovered ())) && Engine.now eng < drain_end do
    Engine.run_for eng (Time_ns.us 100)
  done;
  for _ = 1 to !outstanding do
    fail "request unanswered at the drain deadline"
  done;
  if not (recovered ()) then fail "restarted follower never caught up";
  Engine.run_for eng settle;
  List.iter
    (fun check -> match check sys with Ok () -> () | Error e -> fail e)
    [ agreement; invariants; spec.final_check ];
  let final_snap = M.snapshot metrics in
  let reads = Bstats.sorted !reads and writes = Bstats.sorted !writes in
  let latency = Bstats.pool [ reads; writes ] in
  {
    setup_s;
    total_s = Host.seconds_since t_pass -. calib_s;
    window_s;
    window_cpu_s;
    calib_s;
    slowness = Calib.slowness calib;
    window_ns = spec.window;
    window_reqs = !window_reqs;
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    latency;
    reads;
    writes;
    catchup_ns = !catchup_ns;
    fingerprint =
      fingerprint ~window_reqs:!window_reqs ~attempted:!attempted ~failed:!failed
        ~catchup_ns:!catchup_ns ~latency ~reads final_snap;
    window_snap;
    final_snap = (if traced then final_snap else []);
    probe;
  }
