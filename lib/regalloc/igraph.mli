(** Interference graph.

    Nodes are web registers plus the physical registers occurring in
    the lowered code.  Edges follow Chaitin's rule: at every
    instruction, the defined register interferes with everything live
    out of it — except, for a copy, the copy source.  Edges connect
    registers of the same class only (the two register files are
    disjoint).

    The graph supports destructive node merging with an internal alias
    (union-find) map, which is how the merge-based coalescing phases of
    the baseline allocators are expressed.  All queries resolve aliases
    first.

    Representation: nodes are dense indices of the liveness compact
    numbering ({!Regbits.compact}), which holds every register of the
    body and never grows, so every per-node array is sized once.
    Queries naming a register outside the numbering raise
    [Invalid_argument].  Membership ([interferes]) is a
    bit-matrix test, neighbor iteration walks a per-node adjacency
    vector, and degrees are cached — the engineering of production
    Chaitin/Briggs allocators.  {!build} ORs each definition's live-out
    row into the matrix a word at a time, mirrors it, and then writes
    each degree and each adjacency vector once; {!merge} keeps all
    three exact.

    Every adjacency vector lists a node's neighbors in ascending index
    of the numbering, after {!build} and after every {!merge}, so the
    graph, its iteration order included, is a function of its edge set
    and the numbering alone. *)

type t

type move = { instr_id : int; dst : Reg.t; src : Reg.t }

val build : Cfg.func -> Liveness.t -> t

val cls : t -> Reg.t -> Reg.cls

val vnodes : t -> Reg.t list
(** Virtual (non-precolored) nodes that are current merge
    representatives, ie. excluding merged-away nodes. *)

val interferes : t -> Reg.t -> Reg.t -> bool

val fold_adj : t -> Reg.t -> init:'a -> f:('a -> Reg.t -> 'a) -> 'a
(** Fold over the current neighbors of the node's representative
    (aliases resolved, merged-away nodes absent), in ascending index of
    the numbering; the graph must not be mutated during the fold. *)

val degree : t -> Reg.t -> int
(** [infinite_degree] for physical registers. *)

(** {2 Dense sub-API}

    The graph's nodes are indices of the liveness compact numbering;
    these entry points expose that numbering so downstream phases (the
    PDGC core, simplify, coalesce) can keep per-node state in plain
    arrays indexed by the same integers.  All public query results stay
    [Reg.t]-typed; the index view is a performance door, not a second
    interface. *)

val compact : t -> Regbits.compact
(** The shared per-function numbering (same object as
    [Liveness.compact] of the liveness the graph was built from). *)

val index_of : t -> Reg.t -> int
(** Root (merge-representative) index of a register.  Stable until the
    next [merge] involving the node. *)

val reg_of : t -> int -> Reg.t
(** Inverse of the numbering; [i] must be a valid index. *)

val root_idx : t -> int -> int
(** Root (merge-representative) index of any index of the numbering:
    [index_of g r = root_idx g i] where [i] is [r]'s index. *)

val iter_adj_idx : t -> int -> (int -> unit) -> unit
(** The neighbors of a root index, ascending, as in {!fold_adj}. *)

val degree_idx : t -> int -> int
val interferes_idx : t -> int -> int -> bool

val infinite_degree : int

val moves : t -> move list
(** Every copy instruction between same-class registers, including
    copies to and from physical registers. *)

val alias : t -> Reg.t -> Reg.t
(** Merge representative of a register (itself if never merged). *)

val merge : t -> keep:Reg.t -> drop:Reg.t -> unit
(** Coalesce [drop] into [keep]: union the adjacency, redirect the
    alias.  Each affected vector has [drop] deleted and [keep] inserted
    at its sorted place, O(degree) per neighbor, and degrees stay
    exact.  [drop] must be virtual and must not interfere with [keep].
    @raise Invalid_argument otherwise. *)

val copy : t -> t
(** Independent snapshot (shares the underlying function). *)
