(** Merge-based coalescing phases.

    Both phases destructively merge move-related, non-interfering nodes
    in the interference graph (the code itself is not rewritten; the
    alias map makes the coalesced copies color-identical, and the
    finalizer deletes same-color copies).

    - [aggressive] (Chaitin): merge every coalescable pair.  Interference
      only grows under merging, so one pass reaches the fixpoint.
    - [conservative] (Briggs): merge only when the combined node has
      fewer than [k] significant-degree neighbors, so coalescing can
      never turn a colorable graph uncolorable.  Successful merges can
      unblock others; passes repeat until a fixpoint. *)

val aggressive : Igraph.t -> int
(** Returns the number of merges performed. *)

val conservative : k:int -> Igraph.t -> int

val briggs_ok :
  k:int -> degree:(int -> int) -> Igraph.t -> int -> int -> bool
(** [briggs_ok ~k ~degree g a b] is the Briggs conservatism test for
    the root indices [a] and [b]: their neighbourhoods hold, together,
    fewer than [k] distinct nodes of [degree] at least [k].
    {!conservative} passes the graph's degree ({!Igraph.degree_idx});
    iterated coalescing passes its current degree, which reads 0 for
    nodes already on its select stack. *)

val george_ok :
  k:int -> degree:(int -> int) -> Igraph.t -> int -> int -> bool
(** [george_ok ~k ~degree g a b] is the George test for the root
    indices [a] and [b]: every neighbour of [a] has [degree] below [k],
    is precolored, or already neighbours [b].  Used with a precolored
    [b]; [degree] as for {!briggs_ok}. *)
