(** Integrated register selection (paper §5.3).

    Iterates over the ready nodes of the {!Cpg} (those whose every
    predecessor has been processed), choosing at each step the node
    whose honorable preferences have the largest strength differential,
    then picks its register by screening the available set through its
    preferences from strongest to weakest:

    - 2.1/2.2: preferences that cannot be honored (target register
      taken, sequential target out of range, target spilled) are
      eliminated; live-range-to-live-range preferences whose target is
      not yet allocated are set aside;
    - 2.3/3: the node with the largest differential between its
      strongest and weakest honorable preference goes first (a single
      preference counts against the zero no-preference baseline);
    - 4.1: no free register means a spill; a strongest preference for
      memory means an active spill (§5.4);
    - 4.2: each preference screens the surviving register set, skipped
      if screening would empty it;
    - 4.3: set-aside preferences (and preferences of unallocated nodes
      targeting this one) veto registers that would make their later
      honoring impossible;
    - 4.4: among survivors, take the register whose kind benefits the
      node most (index order as tie-break).

    The honor loop is incremental: per-node availability masks and
    preference summaries (count, strongest and weakest honorable
    strength) are maintained under the invalidation contract of
    DESIGN §3e rather than recomputed per step. *)

(** Ready-node choice policy — the ablation axis for §5.3 step 3. *)
type policy =
  | Differential
      (** the paper's rule: largest strength differential first *)
  | Strongest  (** greedy: strongest single preference first *)
  | Fifo  (** queue order; ignores preferences when choosing nodes *)

type stats = {
  honored_coalesce : int;
  honored_sequential : int;
  honored_kind : int;
  honored_limited : int;
  active_spills : int;
}

type outcome = {
  colors : Reg.t Reg.Tbl.t;  (** web -> physical register *)
  spilled : Reg.Set.t;
  stats : stats;
}

type params = {
  no_spill : Reg.t -> bool;
      (** nodes that must not spill (e.g. already-spilled webs whose
          reload ranges cannot be split again) *)
  spill_risk : Reg.Set.t;
      (** the optimistically pushed (potential spill) nodes; they are
          selected from the ready queue first *)
  policy : policy;
  fallback_nonvolatile_first : bool;
      (** step 4.4 fallback when preferences are disabled: prefer any
          nonvolatile register over any volatile one *)
}
(** Tuning knobs of a select run.  Build with {!params} so call sites
    keep compiling when the record grows a field (the
    [Alloc_common.config] pattern). *)

val params :
  ?no_spill:(Reg.t -> bool) ->
  ?spill_risk:Reg.Set.t ->
  ?policy:policy ->
  ?fallback_nonvolatile_first:bool ->
  unit ->
  params
(** Defaults: never [no_spill], empty [spill_risk], [Differential],
    [fallback_nonvolatile_first = false]. *)

val run : Machine.t -> Igraph.t -> Rpg.t -> Cpg.t -> Strength.t -> params -> outcome
(** The RPG must share the graph's numbering
    ([Rpg.build ~cpt:(Igraph.compact g)]).
    @raise Invalid_argument otherwise. *)
