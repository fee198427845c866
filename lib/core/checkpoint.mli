(** A replica's checkpoint image (DESIGN.md §13): its store as of one
    applied frontier (the cut). Registered cells are kept raw, both
    dual versions, in the wire format state transfer ships; local-class
    objects at their newest version at or below the cut.

    Images are immutable. A round builds the next image from the
    previous one and the store's change record
    ({!Versioned_store.take_changes}), re-encoding only the objects
    written since the previous cut plus the local objects that held a
    version above it. The result equals a from-scratch snapshot of the
    store at the new cut; only the first round scans the whole store. *)

open Heron_multicast

type t

val build : ?prev:t -> Versioned_store.t -> frontier:Tstamp.t -> t * int
(** [build ?prev store ~frontier] is the image of [store] at cut
    [frontier], and the number of objects it re-encoded. Without
    [prev] (or when [frontier] is behind [prev]'s cut) it scans the
    whole store; otherwise it starts from [prev]. Either way it drains
    the store's change record, so recording must have been on since
    [prev] was built. Runs without suspension points. *)

val frontier : t -> Tstamp.t
(** The cut: every update at or below it is captured. *)

val reg_cells : t -> (Oid.t * bytes) list
(** Registered cells, ascending by oid. *)

val loc_values : t -> (Oid.t * (bytes * Tstamp.t)) list
(** Local-class values at the cut, ascending by oid. Objects with no
    version at or below the cut are absent. *)

val loc_bytes : t -> int
(** Serialized footprint of {!loc_values}: value length plus 24 bytes
    per object. *)

val bytes : t -> int
(** Total shippable footprint: every cell's length plus {!loc_bytes}. *)
