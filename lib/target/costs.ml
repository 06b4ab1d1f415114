let op = 1
let move = 1
let store = 1
let load = 2
let memory_op = 2
let limited_fixup = 1
let save_restore = store + load
let callee_save = 2
let call_overhead = 2

let inst_cost = function
  | Instr.Move _ -> move
  | Instr.Load _ | Instr.Load_pair _ | Instr.Reload _ -> load
  | Instr.Store _ | Instr.Spill _ -> store
  | Instr.Call _ -> call_overhead
  | Instr.Phi _ | Instr.Param _ -> 0
  | Instr.Const _ | Instr.Unop _ | Instr.Binop _ | Instr.Cmp _
  | Instr.Limited _ | Instr.Jump _ | Instr.Branch _ | Instr.Ret _ ->
      op
