(** Spill-cost estimation (paper Appendix).

    For a register [V]:
    - [Spill_Cost(V)] — added memory traffic when spilled: a 2-cycle
      load per use and a 1-cycle store per definition, weighted by the
      execution frequency of the site;
    - [Op_Cost(V)] — cost of the operations using or defining [V]
      (2 cycles for memory operations, 1 otherwise, calls excluded),
      same weighting;
    - [Mem_Cost(V) = Spill_Cost(V) + Op_Cost(V)] — the baseline cost
      the preference strengths are measured against. *)

type info = {
  spill_cost : int;
  op_cost : int;
  mem_cost : int;
  n_defs : int;
  n_uses : int;
}

type t

val compute : ?loops:Loops.t -> ?cpt:Regbits.compact -> Cfg.func -> t
(** [loops] reuses an already-computed loop forest (the per-round
    analysis context passes it); one is computed privately otherwise.
    [cpt] shares a compact register numbering (eg. the liveness one) so
    the cost tables are flat arrays over the same indices; a private
    numbering is seeded from the body otherwise. *)

val info : t -> Reg.t -> info
(** Zero costs for a register that never occurs. *)

val spill_cost : t -> Reg.t -> int
val mem_cost : t -> Reg.t -> int

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
    query, so [g] must not be merged after that query. *)
