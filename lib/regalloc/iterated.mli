(** Iterated register coalescing (George & Appel, TOPLAS 1996;
    paper Fig. 2(a)).

    Simplification, conservative coalescing, freezing and spill
    selection interleave through worklists: simplify only
    non-move-related nodes; when simplification blocks, try a
    conservative coalesce (Briggs test between virtual nodes, George
    test against precolored nodes); when no coalesce applies, freeze a
    low-degree move-related node and keep going; spill decisions come
    last.  Optimistic node removal and biased color assignment give
    frozen and potential-spill nodes their chance. *)

val allocate : Machine.t -> Cfg.func -> Alloc_common.result

val allocator : Allocator.t
(** Registry value for this allocator. *)
