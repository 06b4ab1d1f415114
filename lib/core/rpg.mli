(** Register Preference Graph (paper §5.1).

    A directed graph whose nodes are live ranges, physical registers and
    register kinds, and whose edges record preferences weighted by the
    benefit of honoring them (see {!Strength}).  Four preference types
    from the paper's Fig. 7 plus the explicit memory preference used by
    the full coloring system (§5.4):

    - [Coalesce target]: use the same register as [target];
    - [Seq_plus target]: use [register(target) + 1] (paired load, this
      node holds the higher word);
    - [Seq_minus target]: use [register(target) - 1];
    - [Kind]: volatile vs. non-volatile preference (the weight pair
      carries both benefits; the better side is the preferred kind);
    - [In_limited]: land in the machine's limited register set;
    - [Memory]: prefer being spilled (strength positive only when every
      register residence loses to memory). *)

type ptype =
  | Coalesce of Reg.t
  | Seq_plus of Reg.t
  | Seq_minus of Reg.t
  | Kind
  | In_limited
  | Memory

type pref = { target : ptype; weight : Strength.weight; instr_id : int option }

type t

val strength : pref -> int
(** Ranking strength of a preference: the better side of the weight
    pair ([Memory] uses its precomputed positive strength directly). *)

val build :
  ?kinds:[ `All | `Coalesce_only ] ->
  cpt:Regbits.compact ->
  Machine.t ->
  Cfg.func ->
  Strength.t ->
  t
(** Scan the body for copies, paired-load candidates and limited
    operations, and attach volatility/memory preferences to every live
    range.  [`Coalesce_only] restricts the graph to coalesce edges (the
    paper's "only coalescing" configuration).  [cpt] is the round's
    numbering of [fn] (the interference graph's), so the PDGC pipeline
    indexes one node space; it must hold every register of [fn].
    Queries remain [Reg.t]-typed. *)

val prefs : t -> Reg.t -> pref list
(** Out-edges of a node, strongest first.
    @raise Invalid_argument for a register not in {!compact}. *)

val incoming : t -> Reg.t -> (Reg.t * pref) list
(** In-edges: nodes whose preference targets this node (coalesce and
    sequential edges only).
    @raise Invalid_argument for a register not in {!compact}. *)

val pairs : t -> (int * Reg.t * Reg.t) list
(** Paired-load candidates as [(hi_load_instr_id, lo_dst, hi_dst)]. *)

(** {2 Dense index sub-API}

    Indices are those of {!compact}, the numbering [build] was given.
    A caller must check (physical equality is enough) that it holds the
    same numbering before mixing these indices with another phase's. *)

val compact : t -> Regbits.compact

val prefs_idx : t -> int -> (pref * int) list
(** {!prefs} of the node at an index, each preference paired with the
    index of its target when that is a virtual register (Coalesce and
    Seq), [-1] otherwise. *)

val incoming_idx : t -> int -> (int * pref) list
(** {!incoming} of the node at an index, each source given by its
    index. *)

val pp : Format.formatter -> t -> unit

val to_dot : ?name:(Reg.t -> string) -> Format.formatter -> t -> unit
(** Graphviz rendering: solid edges for coalesce, dashed for
    sequential±, dotted self-styled nodes for kind/limited/memory
    preferences.  [name] overrides register labels. *)
