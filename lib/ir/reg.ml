type t = int

type cls = Int_class | Float_class

let equal = Int.equal
let compare = Int.compare
(* The id itself: ids are non-negative and dense, so [Hashtbl.Make]'s
   mask spreads them evenly (see reg.mli). *)
let hash (r : t) = r
let max_phys = 64
let first_virtual = 2 * max_phys

let phys cls i =
  if i < 0 || i >= max_phys then
    invalid_arg (Printf.sprintf "Reg.phys: index %d out of range" i);
  match cls with Int_class -> i | Float_class -> max_phys + i

let is_phys r = r < first_virtual
let is_virtual r = r >= first_virtual

let phys_index r =
  if is_virtual r then invalid_arg "Reg.phys_index: virtual register";
  if r < max_phys then r else r - max_phys

let phys_cls r =
  if is_virtual r then invalid_arg "Reg.phys_cls: virtual register";
  if r < max_phys then Int_class else Float_class

let to_string r =
  if is_virtual r then Printf.sprintf "v%d" (r - first_virtual)
  else
    match phys_cls r with
    | Int_class -> Printf.sprintf "r%d" (phys_index r)
    | Float_class -> Printf.sprintf "f%d" (phys_index r)

let pp ppf r = Format.pp_print_string ppf (to_string r)

module Set = Set.Make (Int)
module Map = Map.Make (Int)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
