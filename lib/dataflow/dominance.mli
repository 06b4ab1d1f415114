(** Dominator tree and dominance frontiers.

    Implementation of Cooper, Harvey & Kennedy, "A Simple, Fast
    Dominance Algorithm".  Only blocks reachable from the entry are
    considered.  Every fact is kept in an array indexed by label (of
    length {!Cfg.label_bound}), so a query is one array read. *)

type t

val compute : Cfg.func -> t

val reachable : t -> Instr.label -> bool
(** Is the block reachable from the entry? *)

val idom : t -> Instr.label -> Instr.label option
(** Immediate dominator; [None] for the entry block.  Only the tests
    read it: the [Ref_dom] oracle checks the dominator tree itself, not
    just the {!dominates} answers built on it.
    @raise Not_found for unreachable blocks. *)

val dominates : t -> Instr.label -> Instr.label -> bool
(** [dominates t a b] — does [a] dominate [b] (reflexively)?
    @raise Not_found when [b] is unreachable and not [a]. *)

val children : t -> Instr.label -> Instr.label list
(** Children in the dominator tree. *)

val frontier : t -> Instr.label -> Instr.label list
(** Dominance frontier of a block. *)

val labels : t -> Instr.label list
(** Reachable labels in reverse postorder. *)

val predecessors : t -> Instr.label list array
(** The {!Cfg.predecessors} array the tree was computed from: every
    predecessor, reachable or not.  Shared, not copied. *)
