type per_class = { ints : int; floats : int }

let zero = { ints = 0; floats = 0 }
let add a b = { ints = a.ints + b.ints; floats = a.floats + b.floats }

let count_class acc cls =
  match cls with
  | Reg.Int_class -> { acc with ints = acc.ints + 1 }
  | Reg.Float_class -> { acc with floats = acc.floats + 1 }

let moves_func (fn : Cfg.func) =
  Cfg.fold_instrs fn
    (fun acc _ i ->
      match i.Instr.kind with
      | Instr.Move { dst; _ } -> count_class acc (Cfg.cls_of fn dst)
      | _ -> acc)
    zero

let moves (p : Cfg.program) =
  List.fold_left (fun acc fn -> add acc (moves_func fn)) zero p.Cfg.funcs

let spill_code results =
  List.fold_left
    (fun acc (r : Alloc_common.result) ->
      let fn = r.Alloc_common.func in
      Cfg.fold_instrs fn
        (fun acc _ i ->
          match i.Instr.kind with
          | Instr.Spill { src = reg; _ } | Instr.Reload { dst = reg; _ } ->
              count_class acc (Cfg.cls_of fn reg)
          | _ -> acc)
        acc)
    zero results

let eliminated_moves ~before ~after =
  let b = moves before and a = moves after in
  { ints = b.ints - a.ints; floats = b.floats - a.floats }
