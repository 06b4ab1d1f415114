(** Graph simplification (Chaitin / Briggs).

    Repeatedly removes a node with fewer than [k] same-class neighbors
    and pushes it on the stack.  When only significant-degree nodes
    remain, the behavior depends on the mode:

    - [Chaitin]: the spill victim is removed and recorded as a decided
      spill (it will get spill code and the allocation restarts);
    - [Optimistic] (Briggs): the victim is pushed on the stack as a
      potential spill, to be given a chance during select. *)

type mode = Chaitin | Optimistic

type result = {
  stack : Reg.t list;  (** head = top of stack = first node to color *)
  potential_spills : Reg.Set.t;
  forced_spills : Reg.Set.t;  (** non-empty only in [Chaitin] mode *)
}

val run :
  mode ->
  k:int ->
  Igraph.t ->
  spill_choice:(Reg.t list -> Reg.t) ->
  ?never_spill:(Reg.t -> bool) ->
  unit ->
  result
(** [spill_choice] picks the victim among the currently blocked
    (significant-degree) nodes, which it receives in ascending order of
    the graph's compact index ({!Igraph.index_of}): the order in which
    the registers first appear in the body, so a tie the choice breaks
    by position is broken the same way whatever the register ids and
    hash tables.  A victim satisfying [never_spill]
    (spill-code temporaries: their live ranges are already minimal, so
    spill code for them reproduces itself forever) is pushed
    optimistically even in [Chaitin] mode. *)

val removal_order : result -> Reg.t list
(** Nodes in the order simplification removed them (reverse of the
    stack) — the traversal order of the paper's CPG construction. *)
