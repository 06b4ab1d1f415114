(** Per-class counting used by the Fig. 9 series (the paper reports
    integer and floating-point results separately). *)

type per_class = { ints : int; floats : int }

val zero : per_class
val add : per_class -> per_class -> per_class

val moves : Cfg.program -> per_class
(** Copy instructions by register class. *)

val spill_code : Alloc_common.result list -> per_class
(** Spill stores and reloads inserted by allocation (counted on the
    pre-finalize body, so caller/callee saves are excluded). *)

val eliminated_moves :
  before:Cfg.program -> after:Cfg.program -> per_class
(** Moves of [before] that no longer exist in [after] (same-register
    copies deleted by the finalizer). *)
