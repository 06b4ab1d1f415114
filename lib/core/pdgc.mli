(** The full preference-directed coloring system (paper §5.4, Fig. 8).

    Pipeline per round: renumber (webs) -> build the Register Preference
    Graph and the interference graph -> optimistic simplification ->
    build the Coloring Precedence Graph -> integrated register
    selection (spilling, deferred coalescing and preference resolution
    all happen there).  Spilled ranges get spill code and the round
    restarts.

    Two configurations used in the paper's evaluation:
    - [Coalescing_only] — the RPG carries only coalesce edges ("only
      coalescing" in Figs. 9-11), with the same preference-blind
      non-volatile-first fallback the other baselines use;
    - [Full_preferences] — all preference types: coalesce, sequential±
      for paired loads, volatile/non-volatile kind, limited set, and
      active memory preferences.

    Like every allocator, it returns only {!Alloc_common.result};
    select's counters ({!Pdgc_select.stats}) are read from
    {!Pdgc_select.run} by whoever runs a round's stages directly. *)

type variant = Coalescing_only | Full_preferences

(** Ablation knobs (defaults reproduce the paper's system). *)
type config = {
  variant : variant;
  policy : Pdgc_select.policy;  (** ready-node choice, default Differential *)
  relax_order : bool;
      (** true: select follows the CPG partial order (the paper);
          false: select follows the total stack order (ablation) *)
  rematerialize : bool;
      (** re-issue constants instead of reloading spilled ones
          (extension; the paper stores and reloads unconditionally) *)
}

val default_config : variant -> config

val allocate : variant -> Machine.t -> Cfg.func -> Alloc_common.result

val allocate_config : config -> Machine.t -> Cfg.func -> Alloc_common.result

val allocator_coalescing_only : Allocator.t
(** Registry value ("pdgc-co"): the "only coalescing" series. *)

val allocator_full : Allocator.t
(** Registry value ("pdgc"): the "full preferences" series. *)
