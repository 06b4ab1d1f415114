type value = Int of int | Flt of float

type stats = {
  cycles : int;
  instrs : int;
  moves : int;
  mem_ops : int;
  spill_ops : int;
  calls : int;
  fused_pairs : int;
  limited_fixups : int;
}

type result = { value : value option; stats : stats }

exception Out_of_fuel
exception Runtime_error of string

let equal_value a b =
  match (a, b) with
  | None, None -> true
  | Some (Int x), Some (Int y) -> x = y
  | Some (Flt x), Some (Flt y) ->
      x = y || (Float.is_nan x && Float.is_nan y)
  | _ -> false

(* Pre-indexed function body. *)
type fun_image = {
  fn : Cfg.func;
  body : (Instr.label, Instr.t array) Hashtbl.t;
  has_params : bool;
}

type machine_state = {
  int_file : value array;
  float_file : value array;
  heap : value array;
  images : (string, fun_image) Hashtbl.t;
  machine : Machine.t option;
  mutable fuel : int;
  mutable cycles : int;
  mutable instrs : int;
  mutable moves : int;
  mutable mem_ops : int;
  mutable spill_ops : int;
  mutable calls : int;
  mutable fused_pairs : int;
  mutable limited_fixups : int;
}

type frame = {
  venv : value Reg.Tbl.t;
  slots : (int, value) Hashtbl.t;
  params : value array;
}

let image_of_func (fn : Cfg.func) =
  let body = Hashtbl.create 16 in
  List.iter
    (fun (b : Cfg.block) ->
      Hashtbl.replace body b.Cfg.label b.Cfg.instrs)
    fn.Cfg.blocks;
  let has_params =
    Cfg.fold_instrs fn
      (fun acc _ i ->
        acc || match i.Instr.kind with Instr.Param _ -> true | _ -> false)
      false
  in
  { fn; body; has_params }

let to_int = function Int n -> n | Flt f -> int_of_float f
let to_float = function Flt f -> f | Int n -> float_of_int n

let eval_binop op a b =
  match (a, b) with
  | Int x, Int y ->
      Int
        (match op with
        | Instr.Add -> x + y
        | Instr.Sub -> x - y
        | Instr.Mul -> x * y
        | Instr.Div -> if y = 0 then 0 else x / y
        | Instr.Rem -> if y = 0 then 0 else x mod y
        | Instr.And -> x land y
        | Instr.Or -> x lor y
        | Instr.Xor -> x lxor y
        | Instr.Shl -> x lsl (y land 63)
        | Instr.Shr -> x asr (y land 63))
  | _ ->
      let x = to_float a and y = to_float b in
      Flt
        (match op with
        | Instr.Add -> x +. y
        | Instr.Sub -> x -. y
        | Instr.Mul -> x *. y
        | Instr.Div -> if y = 0.0 then 0.0 else x /. y
        | Instr.Rem -> if y = 0.0 then 0.0 else Float.rem x y
        | Instr.And | Instr.Or | Instr.Xor | Instr.Shl | Instr.Shr ->
            raise (Runtime_error "bitwise operation on floats"))

let eval_cmp op a b =
  let r =
    match (a, b) with
    | Int x, Int y -> compare x y
    | a, b -> compare (to_float a) (to_float b)
  in
  let bool_to_value c = Int (if c then 1 else 0) in
  match op with
  | Instr.Eq -> bool_to_value (r = 0)
  | Instr.Ne -> bool_to_value (r <> 0)
  | Instr.Lt -> bool_to_value (r < 0)
  | Instr.Le -> bool_to_value (r <= 0)
  | Instr.Gt -> bool_to_value (r > 0)
  | Instr.Ge -> bool_to_value (r >= 0)

(* What a call leaves in the volatile registers under [~machine]: the
   callee may have overwritten them, so a caller that reads one without
   a restore must not find a value that survived only because this
   callee happened not to write it. *)
let poison_int = Int 0xbad_c0de
let poison_float = Flt Float.nan

(* Words of heap; addresses wrap around it. *)
let heap_size = 4096

let run ?machine ?(fuel = 30_000_000) ?(args = []) (p : Cfg.program) =
  let images = Hashtbl.create 16 in
  List.iter
    (fun fn -> Hashtbl.replace images fn.Cfg.name (image_of_func fn))
    p.Cfg.funcs;
  let st =
    {
      int_file = Array.make Reg.max_phys (Int 0);
      float_file = Array.make Reg.max_phys (Flt 0.0);
      heap = Array.make heap_size (Int 0);
      images;
      machine;
      fuel;
      cycles = 0;
      instrs = 0;
      moves = 0;
      mem_ops = 0;
      spill_ops = 0;
      calls = 0;
      fused_pairs = 0;
      limited_fixups = 0;
    }
  in
  let heap_index addr =
    let w = addr / 8 in
    ((w mod heap_size) + heap_size) mod heap_size
  in
  let get frame r =
    if Reg.is_phys r then
      match Reg.phys_cls r with
      | Reg.Int_class -> st.int_file.(Reg.phys_index r)
      | Reg.Float_class -> st.float_file.(Reg.phys_index r)
    else
      match Reg.Tbl.find_opt frame.venv r with
      | Some v -> v
      | None -> Int 0
  in
  let set frame r v =
    if Reg.is_phys r then
      match Reg.phys_cls r with
      | Reg.Int_class -> st.int_file.(Reg.phys_index r) <- v
      | Reg.Float_class -> st.float_file.(Reg.phys_index r) <- v
    else Reg.Tbl.replace frame.venv r v
  in
  let charge n = st.cycles <- st.cycles + n in
  let rec call_function name arg_values depth =
    if depth > 4096 then raise (Runtime_error "call stack overflow");
    let image =
      match Hashtbl.find_opt st.images name with
      | Some im -> im
      | None -> raise (Runtime_error ("unknown function " ^ name))
    in
    let frame =
      {
        venv = Reg.Tbl.create 64;
        slots = Hashtbl.create 16;
        params = Array.of_list arg_values;
      }
    in
    let rec exec_block label =
      let instrs =
        match Hashtbl.find_opt image.body label with
        | Some a -> a
        | None -> raise (Runtime_error (Printf.sprintf "no block L%d" label))
      in
      let n = Array.length instrs in
      let rec step idx =
        if idx >= n then raise (Runtime_error "fell off block end");
        let i = instrs.(idx) in
        st.fuel <- st.fuel - 1;
        if st.fuel <= 0 then raise Out_of_fuel;
        st.instrs <- st.instrs + 1;
        match i.Instr.kind with
        | Instr.Move { dst; src } ->
            st.moves <- st.moves + 1;
            charge Costs.move;
            set frame dst (get frame src);
            step (idx + 1)
        | Instr.Const { dst; value } ->
            charge Costs.op;
            let cls =
              if Reg.is_phys dst then Reg.phys_cls dst
              else Cfg.cls_of image.fn dst
            in
            let v =
              match cls with
              | Reg.Int_class -> Int (Int64.to_int value)
              | Reg.Float_class -> Flt (Int64.float_of_bits value)
            in
            set frame dst v;
            step (idx + 1)
        | Instr.Unop { op; dst; src } ->
            charge Costs.op;
            let v =
              match (op, get frame src) with
              | Instr.Neg, Int x -> Int (-x)
              | Instr.Neg, Flt x -> Flt (-.x)
              | Instr.Not, Int x -> Int (lnot x)
              | Instr.Not, Flt _ ->
                  raise (Runtime_error "not on float")
              | Instr.Itof, v -> Flt (to_float v)
              | Instr.Ftoi, v -> Int (to_int v)
            in
            set frame dst v;
            step (idx + 1)
        | Instr.Binop { op; dst; src1; src2 } ->
            charge Costs.op;
            set frame dst (eval_binop op (get frame src1) (get frame src2));
            step (idx + 1)
        | Instr.Cmp { op; dst; src1; src2 } ->
            charge Costs.op;
            set frame dst (eval_cmp op (get frame src1) (get frame src2));
            step (idx + 1)
        | Instr.Load { dst; base; offset } ->
            st.mem_ops <- st.mem_ops + 1;
            charge Costs.load;
            let addr = to_int (get frame base) + offset in
            set frame dst st.heap.(heap_index addr);
            step (idx + 1)
        | Instr.Load_pair { dst_lo; dst_hi; base; offset } ->
            st.mem_ops <- st.mem_ops + 2;
            charge Costs.load;
            let addr = to_int (get frame base) + offset in
            set frame dst_lo st.heap.(heap_index addr);
            set frame dst_hi st.heap.(heap_index (addr + 8));
            st.fused_pairs <- st.fused_pairs + 1;
            step (idx + 1)
        | Instr.Store { src; base; offset } ->
            st.mem_ops <- st.mem_ops + 1;
            charge Costs.store;
            let addr = to_int (get frame base) + offset in
            st.heap.(heap_index addr) <- get frame src;
            step (idx + 1)
        | Instr.Limited { dst; src } ->
            charge Costs.op;
            (match st.machine with
            | Some m when Reg.is_phys dst && not (Machine.in_limited_set m dst)
              ->
                st.limited_fixups <- st.limited_fixups + 1;
                charge Costs.limited_fixup
            | _ -> ());
            let v =
              match get frame src with
              | Int x -> Int (x land 0xff)
              | Flt f -> Int (to_int (Flt f) land 0xff)
            in
            set frame dst v;
            step (idx + 1)
        | Instr.Call { dst; callee; args } ->
            st.calls <- st.calls + 1;
            charge Costs.call_overhead;
            let arg_values = List.map (get frame) args in
            let res = call_function callee arg_values (depth + 1) in
            (match st.machine with
            | Some m ->
                Array.fill st.int_file 0 m.Machine.n_volatile poison_int;
                Array.fill st.float_file 0 m.Machine.n_volatile poison_float
            | None -> ());
            (match (dst, res) with
            | Some d, Some v -> set frame d v
            | Some d, None -> set frame d (Int 0)
            | None, _ -> ());
            step (idx + 1)
        | Instr.Param { dst; index } ->
            (* free: parameter binding is bookkeeping, not execution *)
            let v =
              if index < Array.length frame.params then frame.params.(index)
              else Int 0
            in
            set frame dst v;
            step (idx + 1)
        | Instr.Spill { src; slot } ->
            st.spill_ops <- st.spill_ops + 1;
            charge Costs.store;
            Hashtbl.replace frame.slots slot (get frame src);
            step (idx + 1)
        | Instr.Reload { dst; slot } ->
            st.spill_ops <- st.spill_ops + 1;
            charge Costs.load;
            let v =
              match Hashtbl.find_opt frame.slots slot with
              | Some v -> v
              | None -> Int 0
            in
            set frame dst v;
            step (idx + 1)
        | Instr.Jump l ->
            charge Costs.op;
            exec_block l
        | Instr.Branch { cond; ifso; ifnot } ->
            charge Costs.op;
            if to_int (get frame cond) <> 0 then exec_block ifso
            else exec_block ifnot
        | Instr.Ret r ->
            charge Costs.op;
            Option.map (get frame) r
        | Instr.Phi _ -> raise (Runtime_error "phi reached the interpreter")
      in
      step 0
    in
    exec_block image.fn.Cfg.entry
  in
  let value = call_function p.Cfg.main args 0 in
  {
    value;
    stats =
      {
        cycles = st.cycles;
        instrs = st.instrs;
        moves = st.moves;
        mem_ops = st.mem_ops;
        spill_ops = st.spill_ops;
        calls = st.calls;
        fused_pairs = st.fused_pairs;
        limited_fixups = st.limited_fixups;
      };
  }
