open Heron_multicast
module Oid_map = Map.Make (Oid)
module Oid_set = Set.Make (Oid)

type t = {
  frontier : Tstamp.t;
  reg : bytes Oid_map.t;
  loc : (bytes * Tstamp.t) Oid_map.t;
  above : Oid_set.t;
      (* local oids whose newest version is past [frontier]: their value
         at a later cut can change without any write *)
  reg_bytes : int;
  loc_bytes : int;
}

let empty frontier =
  {
    frontier;
    reg = Oid_map.empty;
    loc = Oid_map.empty;
    above = Oid_set.empty;
    reg_bytes = 0;
    loc_bytes = 0;
  }

let loc_footprint (v, _) = Bytes.length v + 24

(* Re-encode one object into [ck], whose frontier is already the new
   cut. Objects are never unregistered nor change class, so an oid's
   entry only ever moves within its own map. *)
let refresh store ck oid =
  match Versioned_store.klass_of store oid with
  | Versioned_store.Registered ->
      let cell = Versioned_store.encode_cell_of store oid in
      let old =
        match Oid_map.find_opt oid ck.reg with Some c -> Bytes.length c | None -> 0
      in
      {
        ck with
        reg = Oid_map.add oid cell ck.reg;
        reg_bytes = ck.reg_bytes - old + Bytes.length cell;
      }
  | Versioned_store.Local ->
      let old =
        match Oid_map.find_opt oid ck.loc with Some v -> loc_footprint v | None -> 0
      in
      let loc, added =
        match Versioned_store.get_at_most store oid ~bound:ck.frontier with
        | Some v -> (Oid_map.add oid v ck.loc, loc_footprint v)
        | None -> (Oid_map.remove oid ck.loc, 0)
      in
      let above =
        if Tstamp.(ck.frontier < snd (Versioned_store.get store oid)) then
          Oid_set.add oid ck.above
        else Oid_set.remove oid ck.above
      in
      { ck with loc; above; loc_bytes = ck.loc_bytes - old + added }

let build ?prev store ~frontier =
  let changed = Versioned_store.take_changes store in
  match prev with
  | Some p when Tstamp.(p.frontier <= frontier) ->
      (* An object outside [changed] and [p.above] holds the same
         versions as at [p]'s cut, all at or below it, so its value at
         the later cut is the one [p] already has. *)
      let todo = List.fold_left (fun s oid -> Oid_set.add oid s) p.above changed in
      ( Oid_set.fold (fun oid ck -> refresh store ck oid) todo { p with frontier },
        Oid_set.cardinal todo )
  | Some _ | None ->
      let all =
        Versioned_store.registered_oids store @ Versioned_store.local_oids store
      in
      (List.fold_left (refresh store) (empty frontier) all, List.length all)

let frontier ck = ck.frontier
let reg_cells ck = Oid_map.bindings ck.reg
let loc_values ck = Oid_map.bindings ck.loc
let loc_bytes ck = ck.loc_bytes
let bytes ck = ck.reg_bytes + ck.loc_bytes
