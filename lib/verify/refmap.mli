(** Dataflow translation validation of one allocated function.

    [func m ~reference ~alloc ~final] statically checks that [final]
    (the finalized machine code) is a faithful renaming of [reference]
    (the allocator's virtual-register body) under the allocation map
    [alloc], without executing either.

    The abstract domain maps every location of the final code — each
    physical register and each frame slot — to the set of *reference
    names* (virtual or physical registers, frame slots) whose current
    reference-execution value that location provably holds.  A forward
    fixpoint over the reference CFG (via {!Solver.Make}) pushes this
    map through a lockstep pairing of reference and final instructions
    matched by instruction id: copies deleted by finalization exist
    only on the reference side, inserted caller/callee saves only on
    the final side, and a fused [Load_pair] consumes two reference
    loads.  Calls mark every caller-save register as clobbered and
    strip volatile physical names from all locations.

    Violations reported: uses reading a location that does not hold the
    expected value (clobbered live ranges), values left in volatile
    registers across calls, spill-slot store/load mismatches,
    callee-save registers not restored at returns, and any structural
    divergence that is not a pure renaming (reordered, dropped or
    invented instructions, non-trivial deleted copies, unallocated
    virtuals).  The pairing rule, the calling convention and
    allocatability of the final code alone are {!Audit}'s and {!Lint}'s
    checks. *)

val func :
  Machine.t ->
  reference:Cfg.func ->
  alloc:Reg.t Reg.Tbl.t ->
  final:Cfg.func ->
  Diagnostic.t list
