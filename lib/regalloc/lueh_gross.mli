(** Call-cost directed register allocation (Lueh & Gross, PLDI 1997;
    paper Fig. 3) — the "aggressive+volatility" comparison of Fig. 11.

    Chaitin-style coloring with aggressive coalescing, plus:
    - two benefit functions per live range, for residing in a volatile
      register (pays caller save/restore per crossed call) and in a
      non-volatile register (pays an amortized callee save): the
      Appendix's {!Strength.volatility} pair, summed over the members
      of each coalesced range;
    - benefit-driven simplification: lowest-priority nodes are pushed
      first so that important nodes are colored early;
    - the preference decision: per call site, only the [R] most
      beneficial live ranges keep their non-volatile preference, the
      rest are steered to volatile registers;
    - a select phase that chooses volatile / non-volatile / memory by
      benefit, actively spilling ranges that prefer memory. *)

val allocate : Machine.t -> Cfg.func -> Alloc_common.result

val allocator : Allocator.t
(** Registry value for this allocator. *)
