(* The benchmark's workloads. README.md gives why each one exists and
   which layers it exercises or bypasses. Every input is derived from
   the workload seed; the deployment sees only the generated requests. *)

open Heron_sim
open Heron_core

type t = {
  name : string;
  partitions : int;  (** deployment partitions (the initial shards for kv-churn) *)
  replicas : int;
  clients : int;  (** closed-loop clients in the measured window *)
  subseeds : int;  (** distinct passes whose virtual figures are pooled *)
  pass : seed:int -> traced:bool -> Load.pass;
  dst_mix : seed:int -> Random.State.t -> int list * int;
      (** one sampled request's destination partitions and wire size,
          for the multicast and coordination reruns *)
}

(* The seed of sub-seed pass [k] of a run with seed [seed]. *)
let subseed ~seed k = (seed * 1000) + k

let base_config env ~partitions ~replicas =
  {
    (Config.default ~partitions ~replicas) with
    Config.metrics = env.Load.e_metrics;
    reqtrace = env.Load.e_reqtrace;
  }

let wire_size app req = app.App.req_size req + 32

let expect_one ~what ~part = function
  | [ (p, r) ] when p = part -> Ok r
  | resps ->
      Error
        (Printf.sprintf "%s: expected one response from partition %d, got %s" what
           part
           (String.concat "," (List.map (fun (p, _) -> string_of_int p) resps)))

(* {1 tpcc-paper} *)

module Tpcc = struct
  open Heron_tpcc

  let warehouses = 4
  let scale = Scale.bench ~warehouses
  let clients = 4 * warehouses
  let window = Time_ns.ms 50
  let subseeds = 5
  let gen ~client rng =
    Workload.gen Workload.standard ~scale ~rng ~home_w:((client mod warehouses) + 1)

  let same_kind (req : Tx.req) (resp : Tx.resp) =
    match (req, resp) with
    | Tx.New_order _, Tx.R_new_order _
    | Tx.Payment _, Tx.R_payment _
    | Tx.Order_status _, Tx.R_order_status _
    | Tx.Delivery _, Tx.R_delivery _
    | Tx.Stock_level _, Tx.R_stock_level _ ->
        true
    | _ -> false

  let pass ~seed ~traced =
    let order_ids = Hashtbl.create 4096 in
    let check req resps =
      (* A Payment's balance is computed where its customer lives; every
         other transaction answers from its home warehouse. *)
      let home =
        match req with
        | Tx.Payment { c_w; _ } -> c_w - 1
        | _ -> Tx.home_warehouse req - 1
      in
      let full = List.filter (fun (p, _) -> p = home) resps in
      let partial_ok =
        List.for_all (fun (p, r) -> p = home || r = Tx.R_partial) resps
      in
      match full with
      | [ (_, r) ] when partial_ok && same_kind req r -> (
          match (req, r) with
          | Tx.New_order { w; d; _ }, Tx.R_new_order { o_id; _ } ->
              if Hashtbl.mem order_ids (w, d, o_id) then
                Error (Printf.sprintf "New-Order id %d reused in w%d d%d" o_id w d)
              else begin
                Hashtbl.replace order_ids (w, d, o_id) ();
                Ok ()
              end
          | _ -> Ok ())
      | _ ->
          Error
            (Printf.sprintf "TPC-C %s: wrong response kind or partition"
               (Tx.show_req req))
    in
    Load.run ~seed ~traced
      ~build:(fun env ->
        let eng = Engine.create ~seed () in
        let cfg = base_config env ~partitions:warehouses ~replicas:3 in
        let sys = System.create eng ~cfg ~app:(env.Load.e_wrap (Tx.app ~scale ~seed)) in
        System.start sys;
        sys)
      ~spec:
        {
          Load.clients;
          ramp = [];
          warmup = Time_ns.ms 5;
          window;
          bounce = None;
          gen;
          check;
          on_drain = ignore;
          final_check = (fun _ -> Ok ());
        }
      ()

  let workload =
    {
      name = "tpcc-paper";
      partitions = warehouses;
      replicas = 3;
      clients;
      subseeds;
      pass;
      dst_mix =
        (fun ~seed ->
          let app = Tx.app ~scale ~seed in
          fun rng ->
            let req = gen ~client:(Random.State.int rng clients) rng in
            (App.destinations app ~partitions:warehouses req, wire_size app req));
    }
end

(* {1 ycsb-b-prod} *)

module Ycsb = struct
  open Heron_ycsb

  let partitions = 2
  let records = 65_536
  let value_bytes = 64
  let clients = 32
  let read_pct = 95
  let window = Time_ns.ms 10
  let subseeds = 3

  (* Every update writes a fresh value, so a read names the write it
     observed. *)
  let gen zipf ~submitted rng =
    let key = Zipf.sample zipf rng in
    if Random.State.int rng 100 < read_pct then Ycsb_app.Y_read key
    else begin
      let seed = Hashtbl.length submitted + 1 in
      Hashtbl.replace submitted (key, seed) ();
      Ycsb_app.Y_update { key; seed }
    end

  let check ~submitted req resps =
    let part = Ycsb_app.partition_of_key ~partitions in
    match req with
    | Ycsb_app.Y_read key -> (
        match expect_one ~what:"YCSB read" ~part:(part key) resps with
        | Ok (Ycsb_app.Y_value { counter; size })
          when size = 8 + value_bytes
               && (counter = 0 || Hashtbl.mem submitted (key, counter)) ->
            Ok ()
        | Ok _ -> Error (Printf.sprintf "YCSB read of key %d returned a value never written" key)
        | Error e -> Error e)
    | Ycsb_app.Y_update { key; _ } -> (
        match expect_one ~what:"YCSB update" ~part:(part key) resps with
        | Ok Ycsb_app.Y_ok -> Ok ()
        | Ok _ -> Error "YCSB update: wrong response kind"
        | Error e -> Error e)
    | _ -> Error "YCSB: unexpected request kind"

  let config env =
    let c = base_config env ~partitions ~replicas:3 in
    {
      c with
      Config.pipeline = { Config.default_pipeline with Config.pipe_enabled = true };
      fast_reads = { Config.default_fast_reads with Config.fr_enabled = true };
      durability = { Config.default_durability with Config.dur_enabled = true };
    }

  let pass ~seed ~traced =
    let zipf = Zipf.create ~n:records () in
    let submitted = Hashtbl.create 4096 in
    Load.run ~seed ~traced
      ~build:(fun env ->
        let eng = Engine.create ~seed () in
        let app = Ycsb_app.app ~records ~value_bytes ~partitions in
        let sys = System.create eng ~cfg:(config env) ~app:(env.Load.e_wrap app) in
        System.start sys;
        sys)
      ~spec:
        {
          Load.clients;
          ramp = [];
          warmup = Time_ns.ms 5;
          window;
          bounce = None;
          gen = (fun ~client:_ -> gen zipf ~submitted);
          check = check ~submitted;
          on_drain = ignore;
          final_check = (fun _ -> Ok ());
        }
      ()

  let workload =
    {
      name = "ycsb-b-prod";
      partitions;
      replicas = 3;
      clients;
      subseeds;
      pass;
      dst_mix =
        (fun ~seed:_ ->
          let zipf = Zipf.create ~n:records () in
          let submitted = Hashtbl.create 64 in
          let app = Ycsb_app.app ~records ~value_bytes ~partitions in
          fun rng ->
            Hashtbl.reset submitted;
            let req = gen zipf ~submitted rng in
            (App.destinations app ~partitions req, wire_size app req));
    }
end

(* {1 kv-churn} *)

module Kv = struct
  open Heron_kv

  let pool = 8  (* provisioned replica groups *)
  let shards = 2  (* active at deployment *)
  let keys = 4096
  let start_clients = 4
  let end_clients = 24
  let window = Time_ns.ms 60
  let subseeds = 8

  let gen ~client:_ rng =
    let key () = Random.State.int rng keys in
    let roll = Random.State.int rng 100 in
    if roll < 80 then Kv_app.Add (key (), 1L)
    else if roll < 90 then Kv_app.Get (key ())
    else begin
      let a = key () in
      let b = (a + 1 + Random.State.int rng (keys - 1)) mod keys in
      Kv_app.Incr_all [ a; b ]
    end

  let config env =
    let c = base_config env ~partitions:pool ~replicas:3 in
    {
      c with
      Config.reconfig = { Config.enabled = true };
      topology = { Config.topo_enabled = true; topo_shards = shards };
      durability = { Config.default_durability with Config.dur_enabled = true };
    }

  (* Uniform keys leave object moves nothing to balance, so the ramp is
     carried by splits (tier 2); merges stay off. The default period and
     patience matter: a 500 us / one-round policy re-splits a freshly
     split shard in about one pass in twenty, leaving a lopsided layout
     whose p99 is nearly double. *)
  let policy =
    {
      Heron_reconfig.Rebalancer.default_policy with
      imbalance_x100 = 1_000_000;
      split_min_accesses = 80;
      merge_max_accesses = 0;
    }

  (* Owner of each key under the directory's committed placement. *)
  let owner sys =
    let dir = System.directory sys in
    let view = Placement.fresh_view ?shards:(Placement.shards dir) () in
    Placement.refresh view dir;
    fun key ->
      match
        Placement.placement_under view (System.app sys).App.placement_of
          (Kv_app.oid_of_key key)
      with
      | App.Partition p -> p
      | App.Replicated -> invalid_arg "kv-churn: replicated key"

  let pass ~seed ~traced =
    let acked = ref 0L in
    let rebalancer = ref None in
    let check req resps =
      let values = List.map snd resps in
      match (req, values) with
      | Kv_app.Add _, [ Kv_app.Value v ] when v >= 1L ->
          acked := Int64.succ !acked;
          Ok ()
      | Kv_app.Get _, [ Kv_app.Value v ] when v >= 0L -> Ok ()
      | Kv_app.Incr_all ks, vs
        when vs <> [] && List.for_all (( = ) Kv_app.Ack) vs
             && List.length vs <= List.length ks ->
          acked := Int64.add !acked (Int64.of_int (List.length ks));
          Ok ()
      | _ -> Error "KV: wrong response kind or count"
    in
    let final_check sys =
      let owner = owner sys in
      let sum = ref 0L in
      for k = 0 to keys - 1 do
        let r = System.replica sys ~part:(owner k) ~idx:0 in
        let v, _ = Versioned_store.get (Replica.store r) (Kv_app.oid_of_key k) in
        sum := Int64.add !sum (Bytes.get_int64_le v 0)
      done;
      if !sum = !acked then Ok ()
      else
        Error
          (Printf.sprintf "KV registers sum to %Ld, acknowledged increments %Ld" !sum
             !acked)
    in
    let step = window / ((end_clients - start_clients) / 4 + 1) in
    Load.run ~seed ~traced
      ~build:(fun env ->
        let eng = Engine.create ~seed () in
        let app = Kv_app.app ~keys ~partitions:pool ~init:0L in
        let sys = System.create eng ~cfg:(config env) ~app:(env.Load.e_wrap app) in
        System.start sys;
        rebalancer := Some (Heron_reconfig.Rebalancer.start ~policy sys);
        sys)
      ~spec:
        {
          Load.clients = start_clients;
          ramp = List.init ((end_clients - start_clients) / 4) (fun i -> ((i + 1) * step, 4));
          warmup = Time_ns.ms 5;
          window;
          bounce = Some { Load.b_part = 0; b_idx = 2; b_at = window / 2; b_down = Time_ns.ms 1 };
          gen;
          check;
          on_drain = (fun () -> Option.iter Heron_reconfig.Rebalancer.stop !rebalancer);
          final_check;
        }
      ()

  let workload =
    {
      name = "kv-churn";
      partitions = shards;
      replicas = 3;
      clients = end_clients;
      subseeds;
      pass;
      dst_mix =
        (fun ~seed:_ ->
          let app = Kv_app.app ~keys ~partitions:shards ~init:0L in
          fun rng ->
            let req = gen ~client:0 rng in
            (App.destinations app ~partitions:shards req, wire_size app req));
    }
end

let all = [ Tpcc.workload; Ycsb.workload; Kv.workload ]
let find name = List.find_opt (fun w -> w.name = name) all
