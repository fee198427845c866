(* Per-layer host cost, measured from outside each layer by timing the
   benchmark's own calls into its public functions. Each rerun uses the
   workload's destination mix, client count and message size. *)

open Heron_sim
open Heron_core
module D = Heron_harness.Driver

let warmup = Time_ns.us 500

(* Wall microseconds per completed request of one rerun. *)
let wall_us_per_req f =
  let t0 = Host.now_ns () in
  let (rs : D.run_stats) = f () in
  if rs.D.rs_completed = 0 then invalid_arg "Layers: rerun completed nothing";
  float_of_int (Host.now_ns () - t0) /. 1e3 /. float_of_int rs.D.rs_completed

(* Atomic multicast alone: clients multicast opaque messages to the
   workload's destination sets and wait for every group to deliver. *)
let multicast_us ~seed ~(w : Workloads.t) ~measure =
  let mix = w.Workloads.dst_mix ~seed in
  let bytes =
    let rng = Random.State.make [| seed; 0x5123 |] in
    let n = 256 in
    List.fold_left ( + ) 0 (List.init n (fun _ -> snd (mix rng))) / n
  in
  wall_us_per_req (fun () ->
      D.run_ramcast ~seed ~warmup ~measure ~replicas:w.Workloads.replicas
        ~partitions:w.Workloads.partitions ~clients:w.Workloads.clients
        ~gen_dst:(fun rng -> fst (mix rng))
        ~msg_bytes:bytes ())

(* Multicast plus Phase 2/4 coordination and the replica loop, with an
   application that does nothing: the same destinations through
   [Driver.null_app]. *)
let null_app_us ~seed ~(w : Workloads.t) ~measure =
  let mix = w.Workloads.dst_mix ~seed in
  wall_us_per_req (fun () ->
      let eng = Engine.create ~seed () in
      let cfg =
        {
          (Config.default ~partitions:w.Workloads.partitions
             ~replicas:w.Workloads.replicas)
          with
          Config.metrics = Heron_obs.Metrics.create ();
        }
      in
      let sys = System.create eng ~cfg ~app:D.null_app in
      System.start sys;
      D.run_system ~warmup ~measure ~sys ~clients:w.Workloads.clients
        ~gen:(fun ~client:_ rng ->
          let dst, bytes = mix rng in
          ({ D.nr_dst = dst; nr_bytes = bytes }, Some dst))
        ())

(* Coordination's own cost: the null-app rerun minus the multicast-only
   rerun over the same destinations. *)
let coord_us ~null_us ~mcast_us = null_us -. mcast_us

(* One verb kind's share of a workload: (kind, count, mean payload bytes). *)
type verb_mix = (string * int * int) list

(* Drive [n] verbs over one QP pair at the given mix, interleaved
   deterministically; wall nanoseconds per verb. *)
let rdma_ns_per_verb ~(mix : verb_mix) ~n =
  let total = List.fold_left (fun acc (_, c, _) -> acc + c) 0 mix in
  if total = 0 then 0.
  else begin
    let eng = Engine.create ~seed:1 () in
    let fab =
      Heron_rdma.Fabric.create eng ~profile:Heron_rdma.Profile.default
    in
    let a = Heron_rdma.Fabric.add_node fab ~name:"verbs-a" in
    let b = Heron_rdma.Fabric.add_node fab ~name:"verbs-b" in
    let size = List.fold_left (fun acc (_, _, by) -> max acc by) 8 mix in
    let region = Heron_rdma.Fabric.alloc_region b ~size in
    let addr =
      Heron_rdma.Memory.addr ~node:(Heron_rdma.Fabric.node_id b) region ~off:0
    in
    let qp = Heron_rdma.Qp.connect ~src:a ~dst:b in
    (* A deterministic schedule of kinds in proportion to their counts. *)
    let plan =
      Array.of_list
        (List.concat_map
           (fun (kind, c, by) ->
             if c = 0 then [] else List.init (max 1 (c * 64 / total)) (fun _ -> (kind, max 8 by)))
           mix)
    in
    Heron_rdma.Fabric.spawn_on a (fun () ->
        for i = 0 to n - 1 do
          let kind, by = plan.(i mod Array.length plan) in
          match kind with
          | "read" -> ignore (Heron_rdma.Qp.read qp addr ~len:by)
          | "write" -> Heron_rdma.Qp.write qp addr (Bytes.create by)
          | "write_post" -> Heron_rdma.Qp.write_post qp addr (Bytes.create by)
          | "cas" ->
              ignore (Heron_rdma.Qp.cas qp addr ~expected:0L ~desired:0L)
          | _ -> Heron_rdma.Qp.transfer qp ~bytes_len:by
        done);
    let t0 = Host.now_ns () in
    Engine.run eng;
    float_of_int (Host.now_ns () - t0) /. float_of_int n
  end

(* A fixed batch of chaos schedules derived from the workload seed, run
   under the default flags CI sweeps clean. Returns wall ms per seed and
   the seeds whose verdict was not [Completed]. *)
let chaos ~seed ~seeds =
  let schedules =
    List.init seeds (fun i -> Heron_chaos.Schedule.generate ~seed:((seed * 1000) + i))
  in
  let t0 = Host.now_ns () in
  let failing =
    List.filter_map
      (fun sc ->
        match Heron_chaos.Driver.run sc with
        | Heron_chaos.Driver.Completed _ -> None
        | Heron_chaos.Driver.Failed f ->
            Some
              (Format.asprintf "chaos seed %d: %a" sc.Heron_chaos.Schedule.sc_seed
                 Heron_chaos.Driver.pp_failure f))
      schedules
  in
  (float_of_int (Host.now_ns () - t0) /. 1e6 /. float_of_int seeds, failing)
