(* Host-speed reference. The host this benchmark runs on is shared: its
   speed drifts by 10-20% over tens of seconds, as neighbours come and
   go, and a run's wall-clock figures drift with it. So the measured
   window is cut into slices, and after each slice the same fixed kernel
   runs and is timed on the monotonic clock. How much slower the kernel
   ran than [reference_ns] is how much slower the host was at that
   moment, and the wall-clock figures are scaled back to the reference
   host speed by it.

   The kernel is hash-table lookups and updates over a 64k-entry
   [Hashtbl] and an integer-mixing loop: the cache- and core-bound work
   the simulator itself does. It allocates nothing, so the simulator's
   heap and GC cannot change how long it takes; only the host can. The
   kernel is the benchmark's own code, so no change to the program under
   test changes it. *)

let table_size = 65536
let lookups = 10_000
let mixes = 400_000

(* The kernel's median time on the host this was tuned on (a shared
   2-vCPU Intel Xeon container, OCaml 5.1). Only a scale: every
   normalised figure is a raw figure times a ratio of kernel times. *)
let reference_ns = 3_900_000

let table =
  lazy
    (let h = Hashtbl.create table_size in
     for i = 0 to table_size - 1 do
       Hashtbl.replace h (i * 7919) i
     done;
     h)

let kernel () =
  let h = Lazy.force table in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to lookups do
    x := ((!x * 1103515245) + 12345) land (table_size - 1);
    let k = !x * 7919 in
    acc := !acc + Hashtbl.find h k;
    Hashtbl.replace h k (!acc land (table_size - 1))
  done;
  let y = ref !acc in
  for i = 1 to mixes do
    y := ((!y * 0x9E3779B1) + i) lxor (!y lsr 17)
  done;
  !y

(* Kernel time accumulated over one pass. *)
type t = { mutable ns : int; mutable calls : int }

let create () =
  ignore (Lazy.force table);
  { ns = 0; calls = 0 }

let sink = ref 0

(* Run the kernel once and add its wall time to [t]. *)
let sample t =
  let t0 = Host.now_ns () in
  sink := !sink lxor kernel ();
  t.ns <- t.ns + (Host.now_ns () - t0);
  t.calls <- t.calls + 1

(* Host slowness over the samples: mean kernel time over the reference,
   so 1.2 means the host ran 20% slower than the reference host. *)
let slowness t =
  if t.calls = 0 then invalid_arg "Calib.slowness: no samples";
  float_of_int t.ns /. float_of_int t.calls /. float_of_int reference_ns

(* A wall time measured at host [slowness], at the reference host speed. *)
let normalise ~slowness seconds = seconds /. slowness
