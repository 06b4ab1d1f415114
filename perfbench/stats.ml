(* Order statistics over samples.  Percentiles interpolate linearly
   between the two nearest ranks (the "inclusive" method), so the median
   of an even-sized sample is the mean of the middle two. *)

(* [p] in [0, 1]. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let a = Array.copy a in
  Array.sort compare a;
  let pos = p *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median a = percentile a 0.5
let median_list l = median (Array.of_list l)

(* Geometric mean of positive values; 1 for none (the empty product). *)
let geomean l =
  match l with
  | [] -> 1.
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. l
        /. float_of_int (List.length l))

let ratio num den = if den = 0. then 0. else num /. den
