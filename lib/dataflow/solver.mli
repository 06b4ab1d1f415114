(** Generic iterative dataflow solver over basic blocks.

    Instantiate with a join semilattice of facts and a per-block
    transfer function; the solver runs a worklist to the fixpoint.  The
    direction decides whether facts flow along or against control-flow
    edges. *)

type direction = Forward | Backward

module type FACT = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

type 'a result
(** Per-block facts, looked up by label. *)

val input : 'a result -> Instr.label -> 'a
(** For [Forward]: fact at block entry.  For [Backward]: fact at block
    exit.  The fact type's [bottom] for a block the solver did not
    reach. *)

val output : 'a result -> Instr.label -> 'a
(** The transferred fact on the other side of the block ([bottom] for a
    block the solver did not reach). *)

module Make (F : FACT) : sig
  val solve :
    direction:direction ->
    transfer:(Cfg.block -> F.t -> F.t) ->
    ?entry_fact:F.t ->
    Cfg.func ->
    F.t result
  (** [transfer b fact] maps the block-[input] fact to the block-[output]
      fact.  [entry_fact] seeds the entry block (forward) or every exit
      block (backward); defaults to [F.bottom].

      Only blocks reachable from the entry are solved; an edge touching
      an unreachable block contributes [F.bottom].

      The worklist runs over reverse-postorder positions, with
      predecessors, successors and facts in arrays indexed by position;
      blocks are queued in direction order at the start and joined over
      their predecessors in {!Cfg.predecessors} order. *)
end
