(** Color assignment for the baseline allocators.

    Pops the simplification stack and gives each node a register
    distinct from its already-colored neighbors.  Optimistically pushed
    nodes may fail; they are reported for actual spilling.

    [order] controls which register is taken when several are free —
    the preference-blind heuristics of the paper's §6.2 comparisons.
    With [biased = true], a free register already assigned to a
    copy-related partner is taken first (Briggs' biased coloring). *)

type order =
  | Index_order
  | Nonvolatile_first
      (** the "simple heuristic to use non-volatile registers first"
          the paper gives the preference-blind algorithms *)
  | Volatile_first

type t = {
  colors : Reg.t Reg.Tbl.t;
      (** merge representative -> physical register *)
  failed : Reg.Set.t;  (** optimistic nodes with no free register *)
}

val color_of : t -> Igraph.t -> Reg.t -> Reg.t option
(** Assigned register of any node (aliases resolved; physical registers
    are their own color). *)

val free_mask :
  Machine.t -> Igraph.t -> (Reg.t -> Reg.t option) -> Reg.t -> int
(** [free_mask m g color_of r]: the register mask ({!Machine.file_mask})
    of the file minus every register [color_of] gives a neighbor of
    [r] in [g].  Neighbors share [r]'s class; a neighbor's register
    outside the file adds no bit. *)

val run :
  Machine.t ->
  Igraph.t ->
  stack:Reg.t list ->
  order:order ->
  biased:bool ->
  t
