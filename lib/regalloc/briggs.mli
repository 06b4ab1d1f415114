(** Briggs' optimistic allocator (paper Fig. 1(b)) with aggressive
    coalescing: the "Briggs + aggressive" series of Fig. 9, "regarded
    as the second best" by Park & Moon. *)

val aggressive : Alloc_common.config

val allocator : Allocator.t
(** Registry value ("briggs"): the configuration the paper's figures
    measure. *)
