(** Static allocation verification: the public entry points.

    Combines the layers of the library into one verdict per allocated
    function, each machine-code rule in exactly one of them:

    + the spill-slot metadata rule — each spilled web books a distinct
      frame slot, every slot with spill traffic in the allocator's body
      is booked, and a booking the body never touches is a warning;
    + {!Refmap} — dataflow translation validation of the final code
      against the allocator's pre-finalization body;
    + {!Audit} — machine-constraint re-checking on the final code
      (pairing, calling convention, limited sets, slot
      initialization);
    + {!Lint} — well-formedness of the final CFG, allocatability, no
      leftover [Phi] or [Param].

    A function passes when no {!Diagnostic.severity} [Error] remains;
    warnings (eg. missed limited-set preferences) are reported but do
    not fail verification. *)

val func :
  Machine.t ->
  reference:Cfg.func ->
  alloc:Reg.t Reg.Tbl.t ->
  spill_slots:(Reg.t * int) list ->
  final:Cfg.func ->
  Diagnostic.t list
(** Verify one function.  [reference] is the allocator's output body
    (virtual registers, spill code inserted), [alloc] its allocation
    map, [spill_slots] its spill-slot metadata
    ([Alloc_common.result.spill_slots]), [final] the finalized machine
    code. *)

val result :
  Machine.t -> Alloc_common.result -> final:Cfg.func -> Diagnostic.t list
(** [func] applied to an allocator result and its finalized body. *)

val report : Format.formatter -> Diagnostic.t list -> unit
(** Deterministic rendering: diagnostics are sorted by (func, block,
    index, reason) and exact duplicates dropped before printing
    ({!Diagnostic.normalize}), so sequential and [jobs > 1] runs render
    byte-identical reports. *)
