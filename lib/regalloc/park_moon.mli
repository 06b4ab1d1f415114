(** Optimistic coalescing (Park & Moon, PACT 1998; paper Fig. 2(b)).

    Coalesce aggressively first to exploit the positive (degree-
    reducing) side of coalescing, simplify optimistically, then during
    select undo harmful coalesces instead of spilling: a coalesced node
    that cannot be colored is split back into its member webs; the
    best-benefit subset that fits one color (the primary partition) is
    colored now, the remaining members are pushed to the bottom of the
    stack and colored individually later, spilling only those that
    still fail. *)

val allocate : Machine.t -> Cfg.func -> Alloc_common.result

val allocator : Allocator.t
(** Registry value for this allocator. *)
