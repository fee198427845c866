(* Order statistics the benchmark reports.

   Percentiles are nearest-rank over the raw samples of one request
   class. A percentile is only reported when at least [min_beyond]
   samples lie strictly above its rank: a p99 over 500 samples would be
   the 5th-largest value and would jump with every seed. *)

let min_beyond = 10

let sorted samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a

(* Nearest-rank position (1-based) of percentile [p] among [n] samples. *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Bstats.percentile: no samples";
  a.(rank ~n p - 1)

(* [Ok v] when [p] rests on at least [min_beyond] samples beyond it;
   [Error] names the class and the shortfall otherwise. *)
let guarded_percentile ~what a p =
  let n = Array.length a in
  let beyond = n - rank ~n p in
  if n = 0 || beyond < min_beyond then
    Error
      (Printf.sprintf "%s p%g rests on %d samples beyond it (n=%d, need %d)" what p
         (max 0 beyond) n min_beyond)
  else Ok (percentile a p)

(* Pool the samples of one class from several sources (passes, or
   the read and write classes) into one sorted array. *)
let pool arrays =
  let a = Array.concat arrays in
  Array.sort compare a;
  a

let median_f = function
  | [] -> invalid_arg "Bstats.median_f: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
