(** Constraint auditor for finalized machine code.

    Independently of the dataflow validation, re-check the machine's
    irregular constraints on the final code alone:

    - every [Load_pair] satisfies [Machine.pair_ok];
    - calls pass their arguments in the machine's per-class
      [Machine.arg_reg] sequence and receive results in
      [Machine.ret_reg]; returns flow through [Machine.ret_reg];
    - a [Limited] destination outside the limited set is reported as a
      warning (the preference is soft; missing it costs a fixup cycle);
    - no frame slot is reloaded before some path has stored to it
      (forward must-initialize dataflow over the slots, reusing
      {!Solver.Make}).

    Allocatability and leftover [Phi]/[Param] are {!Lint}'s rules
    ([Lint.Machine]). *)

val func : Machine.t -> Cfg.func -> Diagnostic.t list
