(** Iterated register coalescing (George & Appel, TOPLAS 1996;
    paper Fig. 2(a)).

    Simplification, conservative coalescing, freezing and spill
    selection interleave through worklists: simplify only
    non-move-related nodes; when simplification blocks, try a
    conservative coalesce ({!Coalesce.briggs_ok} between virtual nodes,
    {!Coalesce.george_ok} against precolored ones, both judged by the
    current degree); when no coalesce applies, freeze a low-degree
    move-related node and keep going; spill decisions come last.
    Optimistic node removal and biased color assignment give frozen
    and potential-spill nodes their chance.

    Each round runs on the round's {!Igraph}, merging in place, with
    its state in arrays over the graph's compact indices and its
    worklists as bitsets over the registers' ranks.  Every choice the
    register order decides is made in that order: the smallest
    register is simplified, frozen or (on a cost/degree tie) spilled
    first, and neighbours are visited in ascending order wherever a
    visit can queue a move.  The output is pinned byte for byte to the
    [Reg.Set] implementation kept as [Ref_iterated] in the tests. *)

val allocate : Machine.t -> Cfg.func -> Alloc_common.result

val allocator : Allocator.t
(** Registry value for this allocator. *)
