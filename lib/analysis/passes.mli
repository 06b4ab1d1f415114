(** The built-in static-analysis passes.

    {!all} lists every pass below, in a fixed order that the
    [bin/analyze] reports follow; drivers resolve pass names against
    it.

    Phase [Ssa]:
    - [lint-ssa]: structural well-formedness under SSA ({!Lint});
    - [ssa-pressure]: MAXLIVE-vs-K certification ({!Maxlive}) — warns
      when pressure exceeds the register file, i.e. greedy chordal
      coloring is not guaranteed and a spill-then-color allocator must
      lower pressure first.

    Phase [Prepared] (allocator input):
    - [lint-prepared]: structural well-formedness after lowering;
    - [use-before-def]: a virtual use no definition reaches
      ({!Reaching});
    - [dead-store]: a side-effect-free definition never observed
      ({!Liveness});
    - [unreachable-block]: blocks unreachable from the entry;
    - [rpg-consistency]: the register preference graph against the
      interference graph — coalesce edges must be mirrored and target
      live nodes, memory preferences must carry positive strength;
      copies between interfering live ranges are flagged as warnings
      (the builder records them, coalescing can never honor them).

    Phase [Machine] (finalized code, with its allocator result):
    - [verify]: the allocation verifier, {!Verify.result} — slot
      metadata, translation validation, machine constraints, and
      well-formedness plus allocatability ({!Lint}). *)

val lint_ssa : Pass.t
val ssa_pressure : Pass.t
val lint_prepared : Pass.t
val use_before_def : Pass.t
val dead_store : Pass.t
val unreachable_block : Pass.t
val rpg_consistency : Pass.t
val verify : Pass.t

val all : Pass.t list
(** Every built-in pass; names are distinct. *)
