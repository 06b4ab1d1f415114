type pair_rule = Parity | Consecutive

type t = {
  name : string;
  k : int;
  n_volatile : int;
  n_arg_regs : int;
  ret_index : int;
  limited_size : int;
  pair_rule : pair_rule;
}

(* Every class's file must fit one register mask: bits 0 .. 61 of a
   non-negative int (bit 62 is the sign bit). *)
let max_k = Sys.int_size - 1

let make ?name ?n_volatile ?n_arg_regs ?(ret_index = 0) ?limited_size
    ?(pair_rule = Parity) ~k () =
  if k < 4 || k > max_k || k mod 2 <> 0 then
    invalid_arg (Printf.sprintf "Machine.make: unsupported k = %d" k);
  let n_volatile = match n_volatile with Some n -> n | None -> k / 2 in
  let n_arg_regs = match n_arg_regs with Some n -> n | None -> n_volatile - 1 in
  let limited_size =
    match limited_size with Some n -> n | None -> max 2 (k / 4)
  in
  let name = match name with Some n -> n | None -> Printf.sprintf "k%d" k in
  if n_volatile < 1 || n_volatile > k then
    invalid_arg
      (Printf.sprintf "Machine.make: unsupported n_volatile = %d" n_volatile);
  if n_arg_regs < 0 || ret_index + 1 + n_arg_regs > n_volatile then
    invalid_arg
      (Printf.sprintf "Machine.make: unsupported n_arg_regs = %d" n_arg_regs);
  if ret_index < 0 || ret_index >= n_volatile then
    invalid_arg
      (Printf.sprintf "Machine.make: unsupported ret_index = %d" ret_index);
  if limited_size < 1 || limited_size > k then
    invalid_arg
      (Printf.sprintf "Machine.make: unsupported limited_size = %d"
         limited_size);
  { name; k; n_volatile; n_arg_regs; ret_index; limited_size; pair_rule }

let middle_pressure = make ~name:"middle-pressure" ~k:24 ()
let is_allocatable m r = Reg.is_phys r && Reg.phys_index r < m.k
let is_volatile m r = Reg.is_phys r && Reg.phys_index r < m.n_volatile

let in_limited_set m r = Reg.is_phys r && Reg.phys_index r < m.limited_size
let file_mask m = (1 lsl m.k) - 1
let volatile_mask m = (1 lsl m.n_volatile) - 1
let nonvolatile_mask m = file_mask m land lnot (volatile_mask m)
let limited_mask m = (1 lsl m.limited_size) - 1

let rec lowest bits j = if bits land (1 lsl j) <> 0 then j else lowest bits (j + 1)

let pick ~prefer free =
  if free = 0 then -1
  else
    let p = free land prefer in
    lowest (if p <> 0 then p else free) 0

let arg_reg m cls i =
  if i < 0 || i >= m.n_arg_regs then
    invalid_arg (Printf.sprintf "Machine.arg_reg: no argument register %d" i);
  Reg.phys cls (m.ret_index + 1 + i)

let ret_reg m cls = Reg.phys cls m.ret_index

let pair_ok m lo hi =
  Reg.is_phys lo && Reg.is_phys hi
  && Reg.phys_cls lo = Reg.phys_cls hi
  && is_allocatable m lo && is_allocatable m hi
  &&
  match m.pair_rule with
  | Parity -> (Reg.phys_index lo + Reg.phys_index hi) land 1 = 1
  | Consecutive -> Reg.phys_index hi = Reg.phys_index lo + 1
