(** Spill-cost estimation (paper Appendix).

    For a register [V], [Spill_Cost(V)] is the added memory traffic
    when [V] is spilled: a 2-cycle load per use and a 1-cycle store per
    definition, weighted by the execution frequency of the site.

    The Appendix also defines [Op_Cost(V)], the cost of the operations
    using or defining [V], and [Mem_Cost(V) = Spill_Cost(V) +
    Op_Cost(V)].  Neither is computed: a preference's strength is
    [Mem_Cost(V) - Ideal_Cost(V, P)], and [Ideal_Cost] carries the same
    [Op_Cost(V)] less the operation the preference saves, so [Op_Cost]
    cancels out of every strength (see {!Strength}'s expansion). *)

type info = { spill_cost : int; n_defs : int; n_uses : int }

type t

val compute : loops:Loops.t -> cpt:Regbits.compact -> Cfg.func -> t
(** [loops] is the round's loop forest and [cpt] its register numbering
    (the liveness one, which must hold every register of the body), so
    the cost tables are flat arrays over the indices the interference
    graph uses.  The per-round analysis ([Alloc_common.analyze]) calls
    it. *)

val info : t -> Reg.t -> info
(** Zero costs for a register that never occurs. *)

val spill_cost : t -> Reg.t -> int

val merged_spill_costs : t -> Igraph.t -> Reg.t -> int
(** [merged_spill_costs t g r] is the sum of [spill_cost] over every
    register with the same merge representative in [g] as [r].
    Applying it to [t] and [g] makes one O(n) pass that sums the whole
    cost table per representative; every query on the resulting
    function is then O(1).  Apply it once per round, after coalescing:
    [g] must not be merged after this call, or the answers go stale. *)

val chaitin_metric :
  t -> Igraph.t -> no_spill:(Reg.t -> bool) -> Reg.t -> float
(** The classic spill-candidate metric [merged cost / degree]; lower is
    a better victim.  Registers satisfying [no_spill] (eg. spill-code
    temporaries) get an effectively infinite metric.  Partially apply
    it once per round: the application to [t], [g] and [no_spill]
    builds the {!merged_spill_costs} table lazily, on the first finite
    query, and computes each merge representative's metric once, on
    its first query, so that a node blocked over many simplification
    steps costs one computation.  [g] must not be merged after the
    first query, and [no_spill] must not change its answers, or the
    cached values go stale. *)
