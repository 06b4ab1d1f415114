(** IR well-formedness linter, usable at any pipeline stage.

    Beyond the structural invariants of [Cfg.validate] (reported here as
    diagnostics instead of a bare string), each phase adds the rules
    that hold at that point of the pipeline:

    - [Ssa]: every virtual register has a unique definition; [Phi] and
      [Param] are legal.
    - [Prepared]: what allocators consume — no [Phi], no [Param], no
      [Load_pair]; virtual registers allowed.
    - [Machine m]: finalized code — additionally every register is
      physical and allocatable in [m]; [Load_pair] is legal.  This is
      the one home of those rules: [Verify] runs it on every final
      body, and [Pipeline.allocate_program] fails on its first error. *)

type phase = Ssa | Prepared | Machine of Machine.t

val func : phase -> Cfg.func -> Diagnostic.t list
