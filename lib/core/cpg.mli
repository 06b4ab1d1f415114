(** Coloring Precedence Graph (paper §5.2).

    Relaxes the total order imposed by the simplification stack into a
    partial order that still preserves colorability: an edge [u -> v]
    means [u] must be given its register before [v].

    Construction follows the paper's nine steps.  Nodes are popped in
    the order simplification removed them; when node [N] is removed
    from the working interference graph, each of its still-present,
    not-yet-ready neighbors must be colored before [N] (they are the
    neighbors whose removal later in simplification is what guaranteed
    [N] a free color).  A node becomes ready the moment its residual
    degree drops below [k] — from then on its own coloring is safe no
    matter when it happens, so no constraint is recorded against it.
    Relaxation is incremental: reachability is maintained as monotone
    per-node bitsets over the popped prefix, and each node's direct
    successors as a bitset row, so inserting
    an edge and retiring the edges it makes transitive is a few
    word-parallel passes instead of a re-traversal of the graph per
    transitive-pruning step (DESIGN §3e).

    The paper's key claim, tested in [test_cpg.ml]: for a graph
    simplified without optimistic spills, {e any} topological order of
    the CPG can be greedily colored with [k] colors.

    {b Layering rule} (same two-layer surface as [Igraph], DESIGN §3c):
    every query below speaks [Reg.t] and is the interface existing
    callers — tests, harness, dot dumps — program against.  The
    {!section:dense} sub-API additionally exposes the graph's compact
    numbering so hot callers ([Pdgc_select]) can keep per-node state in
    plain arrays and skip re-interning; dense indices never escape
    this signature into another module's public API. *)

type t

val build : k:int -> Igraph.t -> Simplify.result -> t
(** Nodes are indexed by the interference graph's compact numbering
    ([Igraph.compact]); {!index_of} agrees with [Igraph.index_of] for
    every node. *)

val of_total_order : Reg.t list -> t
(** A chain: each node must be colored after its predecessor in the
    list.  Passing the select order of plain Chaitin coloring (the
    reversed simplification stack) turns the preference-directed select
    into a stack-order select — the ablation baseline quantifying what
    the order relaxation itself buys.  The chain carries a {e private}
    numbering: its dense indices are not the interference graph's. *)

val initial : t -> Reg.t list
(** Successors of the top node: selectable immediately. *)

val succs : t -> Reg.t -> Reg.t list
val preds : t -> Reg.t -> Reg.t list
val nodes : t -> Reg.t list
val n_edges : t -> int

val resolve : t -> Reg.t -> Reg.t list
(** Mark a node processed (colored or spilled); returns the successors
    that become selectable as a result, in descending register order.
    Each node must be resolved exactly once. *)

val topological_orders_ok : t -> bool
(** Internal sanity: the graph is acyclic. *)

(** {2:dense Dense index sub-API}

    Mirrors [Igraph]'s index surface.  Indices are only meaningful
    against {!compact}; a caller must check (physical equality is
    enough) that it holds the same numbering before mixing this
    graph's indices with another phase's.  The index view is a
    performance door, not a second interface. *)

val compact : t -> Regbits.compact
(** The numbering the node indices live in — the interference graph's
    for {!build}, a private one for {!of_total_order}. *)

val index_of : t -> Reg.t -> int
(** Dense index of a register, interning it if unseen. *)

val reg_of : t -> int -> Reg.t
(** Inverse of the numbering; [i] must be a valid index. *)

val resolve_idx : t -> int -> int list
(** {!resolve} over indices: same pending-counter updates, same
    descending-register result order.  Each node must be resolved
    exactly once, through either entry point. *)

val pp : Format.formatter -> t -> unit

val to_dot : ?name:(Reg.t -> string) -> Format.formatter -> t -> unit
(** Graphviz rendering with explicit top/bottom markers.  Emission is
    deterministic and sorted — nodes ascending by register, each node's
    edges ascending by successor — so dumps diff cleanly across runs
    and jobs modes. *)
