let func ?machine (fn : Cfg.func) =
  let loops = Loops.compute fn in
  Cfg.fold_instrs fn
    (fun acc (b : Cfg.block) i ->
      let freq = Loops.frequency loops b.Cfg.label in
      let cost =
        match i.Instr.kind with
        | Instr.Limited { dst; _ } -> (
            match machine with
            | Some m when Reg.is_phys dst && not (Machine.in_limited_set m dst)
              ->
                Costs.op + Costs.limited_fixup
            | _ -> Costs.op)
        | kind -> Costs.inst_cost kind
      in
      acc + (freq * cost))
    0
