(** Whole-program static-analysis sweeps.

    Runs a pass selection over every phase snapshot of a program — the
    SSA form of each function, the prepared (lowered) body, and, per
    allocator, the finalized machine code with its allocation result —
    and returns the diagnostics grouped by (phase, allocator, pass).  The
    per-function work fans out over {!Engine} workers and merges back
    in function order, and every entry's diagnostics are
    {!Diagnostic.normalize}d, so any [jobs] value yields bit-for-bit
    identical reports.  [bin/analyze] and the test suite's positive
    sweep are both thin wrappers over {!run}. *)

type entry = {
  phase : Pass.phase;
  allocator : string option;
      (** [None] for the allocator-independent phases (Ssa, Prepared). *)
  pass : string;
  diags : Diagnostic.t list;  (** normalized; often empty *)
}

type t = {
  entries : entry list;
  skipped : (string * string) list;
      (** allocators that raised {!Alloc_common.Failed}, with the
          message — an allocator giving up is not an analysis error *)
}

val run :
  ?jobs:int ->
  ?passes:Pass.t list ->
  ?algos:Allocator.t list ->
  Machine.t ->
  Cfg.program ->
  t
(** [run m p] analyzes the raw (pre-SSA) program [p].  [passes]
    defaults to the full registry ({!Passes.all}), [algos] to the
    registered allocators, [jobs] to [Engine.default_jobs ()]. *)

val errors : t -> int
val warnings : t -> int
