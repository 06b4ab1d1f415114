(** Liveness analysis.

    Backward may-analysis: a register is live at a point if some path
    from the point reaches a use before any redefinition.  Phi
    instructions are handled SSA-style: a phi's sources are live out of
    the corresponding predecessor, not live into the phi's block.

    The fixpoint runs over dense {!Regbits} bitsets (word-parallel
    unions over a per-function compact numbering); {!fold_block_backward}
    is a [Reg.Set] view.  Clients on the hot path work on the bitsets
    directly through {!compact}, {!live_in_bits} and
    {!iter_block_backward_bits}. *)

type t

val compute : Cfg.func -> t

val fold_block_backward :
  t ->
  Cfg.block ->
  init:'a ->
  f:('a -> live_out:Reg.Set.t -> Instr.t -> 'a) ->
  'a
(** Walk a block's instructions from last to first; [f] receives each
    instruction together with the set of registers live immediately
    after it. *)

(** {1 Dense access}

    Indices below are those of {!compact}; the numbering covers every
    register occurring in the analyzed function. *)

val compact : t -> Regbits.compact
(** The numbering the analysis ran over, of every register of the
    function.  Shared, not copied: the round's other analyses (the
    interference graph, spill costs, strengths, the RPG and CPG) index
    the same fixed numbering. *)

val live_in_bits : t -> Instr.label -> Regbits.Set.t
(** Fresh (caller-owned) bitset of the block-entry facts. *)

val live_in_mem : t -> Instr.label -> Reg.t -> bool
(** Is the register live into the block?  One bit test, no copy. *)

val iter_block_backward_bits :
  t -> Cfg.block -> f:(live_out:Regbits.Set.t -> Instr.t -> unit) -> unit
(** Dense equivalent of {!fold_block_backward}.  [live_out] is a
    scratch bitset mutated between callbacks — read it during the
    callback, do not retain it. *)
