open Heron_rdma
open Heron_multicast

type klass = Registered | Local

type reg_obj = { ro_off : int; ro_cap : int }

type local_version = { mutable lv_val : bytes; mutable lv_tmp : Tstamp.t }

type local_obj = { la : local_version; lb : local_version }

type entry = Reg of reg_obj | Loc of local_obj

type t = {
  st_node : Fabric.node;
  region : Memory.region;
  objects : (Oid.t, entry) Hashtbl.t;
  mutable next_off : int;
  mutable miss_counter : Heron_obs.Metrics.counter option;
  mutable changes : (Oid.t, unit) Hashtbl.t option;
      (* oids touched by a mutator since the last [take_changes]; [None]
         until [record_changes] *)
}

let create node ~region_size =
  {
    st_node = node;
    region = Fabric.alloc_region node ~size:region_size;
    objects = Hashtbl.create 1024;
    next_off = 0;
    miss_counter = None;
    changes = None;
  }

let attach_metrics t reg =
  t.miss_counter <- Some (Heron_obs.Metrics.counter reg "store.dual_version_miss")

let count_miss t =
  match t.miss_counter with
  | Some c -> Heron_obs.Metrics.incr c
  | None -> ()

(* {1 Change record} *)

let record_changes t =
  match t.changes with
  | None -> t.changes <- Some (Hashtbl.create 256)
  | Some _ -> ()

let mark t oid =
  match t.changes with Some h -> Hashtbl.replace h oid () | None -> ()

let take_changes t =
  match t.changes with
  | None -> []
  | Some h ->
      let oids = Hashtbl.fold (fun oid () acc -> oid :: acc) h [] in
      Hashtbl.clear h;
      oids

let node t = t.st_node
let mem t oid = Hashtbl.mem t.objects oid

let klass_of t oid =
  match Hashtbl.find t.objects oid with Reg _ -> Registered | Loc _ -> Local

(* {1 Registered cell layout} *)

let cell_len_of_cap cap = 32 + (2 * cap)

(* Offsets of the two version slots within a cell. *)
let slot_off ro = function
  | `A -> ro.ro_off
  | `B -> ro.ro_off + 16 + ro.ro_cap

let slot_tmp t ro slot = Tstamp.of_int64 (Memory.get_i64 t.region ~off:(slot_off ro slot))

let slot_value t ro slot =
  let off = slot_off ro slot in
  let len = Int64.to_int (Memory.get_i64 t.region ~off:(off + 8)) in
  Memory.read_bytes t.region ~off:(off + 16) ~len

let slot_write t ro slot value ~tmp =
  let off = slot_off ro slot in
  Memory.set_i64 t.region ~off (Tstamp.to_int64 tmp);
  Memory.set_i64 t.region ~off:(off + 8) (Int64.of_int (Bytes.length value));
  Memory.write_bytes t.region ~off:(off + 16) value

(* {1 Registration} *)

let register t oid ~klass ~cap ~init =
  if Hashtbl.mem t.objects oid then
    invalid_arg "Versioned_store.register: oid already registered";
  (match klass with
  | Local ->
      Hashtbl.replace t.objects oid
        (Loc
           {
             la = { lv_val = Bytes.copy init; lv_tmp = Tstamp.zero };
             lb = { lv_val = Bytes.copy init; lv_tmp = Tstamp.zero };
           })
  | Registered ->
      if Bytes.length init > cap then
        invalid_arg "Versioned_store.register: init exceeds capacity";
      let len = cell_len_of_cap cap in
      if t.next_off + len > Memory.region_size t.region then
        invalid_arg "Versioned_store.register: region out of space";
      let ro = { ro_off = t.next_off; ro_cap = cap } in
      t.next_off <- t.next_off + len;
      Hashtbl.replace t.objects oid (Reg ro);
      slot_write t ro `A init ~tmp:Tstamp.zero;
      slot_write t ro `B init ~tmp:Tstamp.zero);
  (* Only once registered: a rejected registration leaves no trace. *)
  mark t oid

let insert_local t oid value ~tmp =
  if Hashtbl.mem t.objects oid then
    invalid_arg "Versioned_store.insert_local: oid already registered";
  mark t oid;
  Hashtbl.replace t.objects oid
    (Loc
       {
         la = { lv_val = Bytes.copy value; lv_tmp = tmp };
         lb = { lv_val = Bytes.copy value; lv_tmp = tmp };
       })

(* {1 Reads} *)

let versions t oid =
  match Hashtbl.find t.objects oid with
  | Reg ro -> ((slot_value t ro `A, slot_tmp t ro `A), (slot_value t ro `B, slot_tmp t ro `B))
  | Loc l -> ((l.la.lv_val, l.la.lv_tmp), (l.lb.lv_val, l.lb.lv_tmp))

let get t oid =
  let (va, ta), (vb, tb) = versions t oid in
  if Tstamp.(tb <= ta) then (va, ta) else (vb, tb)

let pick_version ((va, ta), (vb, tb)) ~bound =
  let a_ok = Tstamp.(ta < bound) and b_ok = Tstamp.(tb < bound) in
  match (a_ok, b_ok) with
  | true, true -> if Tstamp.(tb <= ta) then Some (va, ta) else Some (vb, tb)
  | true, false -> Some (va, ta)
  | false, true -> Some (vb, tb)
  | false, false -> None

let get_before t oid ~bound =
  match pick_version (versions t oid) ~bound with
  | Some _ as r -> r
  | None ->
      count_miss t;
      None

let get_at_most t oid ~bound =
  let (va, ta), (vb, tb) = versions t oid in
  let a_ok = Tstamp.(ta <= bound) and b_ok = Tstamp.(tb <= bound) in
  match (a_ok, b_ok) with
  | true, true -> if Tstamp.(tb <= ta) then Some (va, ta) else Some (vb, tb)
  | true, false -> Some (va, ta)
  | false, true -> Some (vb, tb)
  (* No miss counted here: the donor snapshot legitimately skips
     objects created beyond its bound. *)
  | false, false -> None

(* {1 Writes} *)

let set t oid value ~tmp =
  match Hashtbl.find_opt t.objects oid with
  | None -> insert_local t oid value ~tmp
  | Some (Reg ro) ->
      if Bytes.length value > ro.ro_cap then
        invalid_arg "Versioned_store.set: value exceeds capacity";
      let ta = slot_tmp t ro `A and tb = slot_tmp t ro `B in
      let slot =
        if Tstamp.equal ta tmp then `A
        else if Tstamp.equal tb tmp then `B
        else if Tstamp.(ta <= tb) then `A
        else `B
      in
      mark t oid;
      slot_write t ro slot value ~tmp
  | Some (Loc l) ->
      let v =
        if Tstamp.equal l.la.lv_tmp tmp then l.la
        else if Tstamp.equal l.lb.lv_tmp tmp then l.lb
        else if Tstamp.(l.la.lv_tmp <= l.lb.lv_tmp) then l.la
        else l.lb
      in
      mark t oid;
      v.lv_val <- Bytes.copy value;
      v.lv_tmp <- tmp

(* {1 Remote cell access} *)

let find_reg t oid =
  match Hashtbl.find t.objects oid with
  | Reg ro -> ro
  | Loc _ -> raise Not_found

let cell_addr t oid =
  let ro = find_reg t oid in
  Memory.addr ~node:(Fabric.node_id t.st_node) t.region ~off:ro.ro_off

let cell_len t oid = cell_len_of_cap (find_reg t oid).ro_cap

let decode_cell raw =
  let total = Bytes.length raw in
  if total < 32 || (total - 32) mod 2 <> 0 then
    invalid_arg "Versioned_store.decode_cell: bad cell size";
  let cap = (total - 32) / 2 in
  let slot off =
    let tmp = Tstamp.of_int64 (Bytes.get_int64_le raw off) in
    let len = Int64.to_int (Bytes.get_int64_le raw (off + 8)) in
    (Bytes.sub raw (off + 16) len, tmp)
  in
  (slot 0, slot (16 + cap))

let truncate_raw_cell raw ~bound =
  let (va, ta), (vb, tb) = decode_cell raw in
  let a_ok = Tstamp.(ta < bound) and b_ok = Tstamp.(tb < bound) in
  if a_ok && b_ok then Some raw
  else
    match
      if a_ok then Some (va, ta) else if b_ok then Some (vb, tb) else None
    with
    | None -> None
    | Some (v, tmp) ->
        let total = Bytes.length raw in
        let cap = (total - 32) / 2 in
        let out = Bytes.make total '\000' in
        let put off =
          Bytes.set_int64_le out off (Tstamp.to_int64 tmp);
          Bytes.set_int64_le out (off + 8) (Int64.of_int (Bytes.length v));
          Bytes.blit v 0 out (off + 16) (Bytes.length v)
        in
        put 0;
        put (16 + cap);
        Some out

let encode_cell_of t oid =
  let ro = find_reg t oid in
  Memory.read_bytes t.region ~off:ro.ro_off ~len:(cell_len_of_cap ro.ro_cap)

let write_raw_cell t oid raw =
  let ro = find_reg t oid in
  if Bytes.length raw <> cell_len_of_cap ro.ro_cap then
    invalid_arg "Versioned_store.write_raw_cell: size mismatch";
  mark t oid;
  Memory.write_bytes t.region ~off:ro.ro_off raw

let value_size t oid = Bytes.length (fst (get t oid))

let filter_oids t pred =
  Hashtbl.fold (fun oid e acc -> if pred e then oid :: acc else acc) t.objects []
  |> List.sort compare

let registered_oids t = filter_oids t (function Reg _ -> true | Loc _ -> false)
let local_oids t = filter_oids t (function Loc _ -> true | Reg _ -> false)
