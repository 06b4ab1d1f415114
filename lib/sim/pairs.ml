let count_fused (fn : Cfg.func) =
  Cfg.fold_instrs fn
    (fun acc _ i ->
      match i.Instr.kind with Instr.Load_pair _ -> acc + 1 | _ -> acc)
    0
