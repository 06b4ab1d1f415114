(** Natural loops and the paper's execution-frequency heuristic.

    The paper estimates instruction execution frequencies "by heuristics
    based on program structure" and uses [Freq_Fact = 10] per loop level
    in the Appendix; we reproduce that: a block at loop-nesting depth
    [d] has frequency [10^d] (capped to avoid overflow).

    Depths are kept in an array indexed by label.  The forest depends
    only on the blocks and edges, so one computation serves every body
    that keeps them: the allocation rounds' web renumbering and spill
    insertion rewrite instructions, never labels or successors. *)

type t

val compute : Cfg.func -> t

val depth : t -> Instr.label -> int
(** Loop-nesting depth; 0 outside any loop. *)

val frequency : t -> Instr.label -> int
(** [10 ^ min (depth, 6)]. *)

val loop_headers : t -> Instr.label list
(** The blocks that head a natural loop.  Only the tests read it: the
    [Ref_dom] oracle checks the loop forest itself, which depths alone
    do not determine. *)
