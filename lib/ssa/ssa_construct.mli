(** SSA construction.

    Semi-pruned minimal SSA: phi functions are placed at the iterated
    dominance frontier of each variable's definition blocks, but only
    where the variable is live in.  Renaming walks the dominator tree
    with one name stack per original variable.

    Only virtual registers are renamed.  A use reached by no definition
    keeps its original name (the workload generator never produces such
    programs; the fallback merely keeps the pass total).

    [run] works on a {!Cfg.clone} of its argument, so the fresh names
    it and the later prepare stages make leave the argument's counters
    ([next_reg], [next_instr_id], [next_label]) and class table
    untouched. *)

val run : Cfg.func -> Cfg.func
