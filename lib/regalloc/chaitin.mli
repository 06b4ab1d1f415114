(** Chaitin's allocator with aggressive coalescing (paper Fig. 1(a)) —
    the baseline of the Fig. 9 comparisons. *)

val config : Alloc_common.config

val allocator : Allocator.t
(** Registry value ("chaitin"). *)
