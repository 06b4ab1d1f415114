type label = int

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Not | Itof | Ftoi

type kind =
  | Move of { dst : Reg.t; src : Reg.t }
  | Const of { dst : Reg.t; value : int64 }
  | Unop of { op : unop; dst : Reg.t; src : Reg.t }
  | Binop of { op : binop; dst : Reg.t; src1 : Reg.t; src2 : Reg.t }
  | Cmp of { op : cmp; dst : Reg.t; src1 : Reg.t; src2 : Reg.t }
  | Load of { dst : Reg.t; base : Reg.t; offset : int }
  | Load_pair of { dst_lo : Reg.t; dst_hi : Reg.t; base : Reg.t; offset : int }
  | Store of { src : Reg.t; base : Reg.t; offset : int }
  | Limited of { dst : Reg.t; src : Reg.t }
  | Call of { dst : Reg.t option; callee : string; args : Reg.t list }
  | Param of { dst : Reg.t; index : int }
  | Spill of { src : Reg.t; slot : int }
  | Reload of { dst : Reg.t; slot : int }
  | Jump of label
  | Branch of { cond : Reg.t; ifso : label; ifnot : label }
  | Ret of Reg.t option
  | Phi of { dst : Reg.t; srcs : (label * Reg.t) list }

type t = { id : int; kind : kind }

let dummy = { id = -1; kind = Ret None }

let defs = function
  | Move { dst; _ }
  | Const { dst; _ }
  | Unop { dst; _ }
  | Binop { dst; _ }
  | Cmp { dst; _ }
  | Load { dst; _ }
  | Limited { dst; _ }
  | Param { dst; _ }
  | Reload { dst; _ }
  | Phi { dst; _ } ->
      [ dst ]
  | Load_pair { dst_lo; dst_hi; _ } -> [ dst_lo; dst_hi ]
  | Call { dst; _ } -> Option.to_list dst
  | Store _ | Spill _ | Jump _ | Branch _ | Ret _ -> []

let uses = function
  | Move { src; _ } | Unop { src; _ } | Limited { src; _ } | Spill { src; _ }
    -> [ src ]
  | Const _ | Param _ | Reload _ | Jump _ -> []
  | Binop { src1; src2; _ } | Cmp { src1; src2; _ } -> [ src1; src2 ]
  | Load { base; _ } | Load_pair { base; _ } -> [ base ]
  | Store { src; base; _ } -> [ src; base ]
  | Call { args; _ } -> args
  | Branch { cond; _ } -> [ cond ]
  | Ret r -> Option.to_list r
  | Phi { srcs; _ } -> List.map snd srcs


let is_terminator = function
  | Jump _ | Branch _ | Ret _ -> true
  | Move _ | Const _ | Unop _ | Binop _ | Cmp _ | Load _ | Load_pair _
  | Store _ | Limited _ | Call _ | Param _ | Spill _ | Reload _ | Phi _ ->
      false

let successors = function
  | Jump l -> [ l ]
  | Branch { ifso; ifnot; _ } -> [ ifso; ifnot ]
  | Ret _ | Move _ | Const _ | Unop _ | Binop _ | Cmp _ | Load _
  | Load_pair _ | Store _ | Limited _ | Call _ | Param _ | Spill _
  | Reload _ | Phi _ ->
      []

let map_regs f = function
  | Move { dst; src } -> Move { dst = f dst; src = f src }
  | Const { dst; value } -> Const { dst = f dst; value }
  | Unop { op; dst; src } -> Unop { op; dst = f dst; src = f src }
  | Binop { op; dst; src1; src2 } ->
      Binop { op; dst = f dst; src1 = f src1; src2 = f src2 }
  | Cmp { op; dst; src1; src2 } ->
      Cmp { op; dst = f dst; src1 = f src1; src2 = f src2 }
  | Load { dst; base; offset } -> Load { dst = f dst; base = f base; offset }
  | Load_pair { dst_lo; dst_hi; base; offset } ->
      Load_pair { dst_lo = f dst_lo; dst_hi = f dst_hi; base = f base; offset }
  | Store { src; base; offset } ->
      Store { src = f src; base = f base; offset }
  | Limited { dst; src } -> Limited { dst = f dst; src = f src }
  | Call { dst; callee; args } ->
      Call { dst = Option.map f dst; callee; args = List.map f args }
  | Param { dst; index } -> Param { dst = f dst; index }
  | Spill { src; slot } -> Spill { src = f src; slot }
  | Reload { dst; slot } -> Reload { dst = f dst; slot }
  | Jump l -> Jump l
  | Branch { cond; ifso; ifnot } -> Branch { cond = f cond; ifso; ifnot }
  | Ret r -> Ret (Option.map f r)
  | Phi { dst; srcs } ->
      Phi { dst = f dst; srcs = List.map (fun (l, r) -> (l, f r)) srcs }

let map_uses f = function
  | Move { dst; src } -> Move { dst; src = f src }
  | Const c -> Const c
  | Unop { op; dst; src } -> Unop { op; dst; src = f src }
  | Binop { op; dst; src1; src2 } ->
      Binop { op; dst; src1 = f src1; src2 = f src2 }
  | Cmp { op; dst; src1; src2 } ->
      Cmp { op; dst; src1 = f src1; src2 = f src2 }
  | Load { dst; base; offset } -> Load { dst; base = f base; offset }
  | Load_pair { dst_lo; dst_hi; base; offset } ->
      Load_pair { dst_lo; dst_hi; base = f base; offset }
  | Store { src; base; offset } ->
      Store { src = f src; base = f base; offset }
  | Limited { dst; src } -> Limited { dst; src = f src }
  | Call { dst; callee; args } -> Call { dst; callee; args = List.map f args }
  | Param p -> Param p
  | Spill { src; slot } -> Spill { src = f src; slot }
  | Reload r -> Reload r
  | Jump l -> Jump l
  | Branch { cond; ifso; ifnot } -> Branch { cond = f cond; ifso; ifnot }
  | Ret r -> Ret (Option.map f r)
  | Phi { dst; srcs } ->
      Phi { dst; srcs = List.map (fun (l, r) -> (l, f r)) srcs }

let map_defs f = function
  | Move { dst; src } -> Move { dst = f dst; src }
  | Const { dst; value } -> Const { dst = f dst; value }
  | Unop { op; dst; src } -> Unop { op; dst = f dst; src }
  | Binop { op; dst; src1; src2 } -> Binop { op; dst = f dst; src1; src2 }
  | Cmp { op; dst; src1; src2 } -> Cmp { op; dst = f dst; src1; src2 }
  | Load { dst; base; offset } -> Load { dst = f dst; base; offset }
  | Load_pair { dst_lo; dst_hi; base; offset } ->
      Load_pair { dst_lo = f dst_lo; dst_hi = f dst_hi; base; offset }
  | Store s -> Store s
  | Limited { dst; src } -> Limited { dst = f dst; src }
  | Call { dst; callee; args } -> Call { dst = Option.map f dst; callee; args }
  | Param { dst; index } -> Param { dst = f dst; index }
  | Spill s -> Spill s
  | Reload { dst; slot } -> Reload { dst = f dst; slot }
  | Jump l -> Jump l
  | Branch b -> Branch b
  | Ret r -> Ret r
  | Phi { dst; srcs } -> Phi { dst = f dst; srcs }

let phi_srcs = function Phi { srcs; _ } -> srcs | _ -> []

let pp_binop ppf op =
  Format.pp_print_string ppf
    (match op with
    | Add -> "add"
    | Sub -> "sub"
    | Mul -> "mul"
    | Div -> "div"
    | Rem -> "rem"
    | And -> "and"
    | Or -> "or"
    | Xor -> "xor"
    | Shl -> "shl"
    | Shr -> "shr")

let pp_cmp ppf op =
  Format.pp_print_string ppf
    (match op with
    | Eq -> "eq"
    | Ne -> "ne"
    | Lt -> "lt"
    | Le -> "le"
    | Gt -> "gt"
    | Ge -> "ge")

let pp_unop ppf op =
  Format.pp_print_string ppf
    (match op with
    | Neg -> "neg"
    | Not -> "not"
    | Itof -> "itof"
    | Ftoi -> "ftoi")

let pp_kind ppf kind =
  let pr fmt = Format.fprintf ppf fmt in
  match kind with
  | Move { dst; src } -> pr "%a = %a" Reg.pp dst Reg.pp src
  | Const { dst; value } -> pr "%a = %Ld" Reg.pp dst value
  | Unop { op; dst; src } -> pr "%a = %a %a" Reg.pp dst pp_unop op Reg.pp src
  | Binop { op; dst; src1; src2 } ->
      pr "%a = %a %a, %a" Reg.pp dst pp_binop op Reg.pp src1 Reg.pp src2
  | Cmp { op; dst; src1; src2 } ->
      pr "%a = cmp.%a %a, %a" Reg.pp dst pp_cmp op Reg.pp src1 Reg.pp src2
  | Load { dst; base; offset } ->
      pr "%a = [%a + %d]" Reg.pp dst Reg.pp base offset
  | Load_pair { dst_lo; dst_hi; base; offset } ->
      pr "%a,%a = [%a + %d]" Reg.pp dst_lo Reg.pp dst_hi Reg.pp base offset
  | Store { src; base; offset } ->
      pr "[%a + %d] = %a" Reg.pp base offset Reg.pp src
  | Limited { dst; src } -> pr "%a = limited %a" Reg.pp dst Reg.pp src
  | Call { dst; callee; args } ->
      let pp_args =
        Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
          Reg.pp
      in
      (match dst with
      | Some d -> pr "%a = call %s(%a)" Reg.pp d callee pp_args args
      | None -> pr "call %s(%a)" callee pp_args args)
  | Param { dst; index } -> pr "%a = param %d" Reg.pp dst index
  | Spill { src; slot } -> pr "frame[%d] = %a" slot Reg.pp src
  | Reload { dst; slot } -> pr "%a = frame[%d]" Reg.pp dst slot
  | Jump l -> pr "jump L%d" l
  | Branch { cond; ifso; ifnot } ->
      pr "branch %a ? L%d : L%d" Reg.pp cond ifso ifnot
  | Ret None -> pr "ret"
  | Ret (Some r) -> pr "ret %a" Reg.pp r
  | Phi { dst; srcs } ->
      let pp_src ppf (l, r) = Format.fprintf ppf "L%d: %a" l Reg.pp r in
      pr "%a = phi [%a]" Reg.pp dst
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           pp_src)
        srcs

let pp ppf { id; kind } = Format.fprintf ppf "i%d: %a" id pp_kind kind
