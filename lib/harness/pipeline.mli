(** The compilation pipeline shared by experiments, examples and tests.

    [prepare] puts a generated program into the shape the paper's
    allocator consumes: SSA construction and destruction (leaving the
    copy-heavy, phi-lowered code of §1), calling-convention lowering
    against a machine, and local paired-load scheduling (adjacent
    candidates are what the RPG's sequential± preferences describe).
    [allocate_program] then runs one allocator over every function —
    fanning the per-function jobs out over {!Engine} workers when
    [jobs > 1] — and finalizes the result into executable machine code.

    Loading this module registers the built-in eight allocators in the
    {!Allocator} registry; look them up with [Allocator.find] or use
    the values below directly. *)

val chaitin_base : Allocator.t
val briggs_aggressive : Allocator.t
val optimistic : Allocator.t
val iterated : Allocator.t
val pdgc_coalescing_only : Allocator.t
val pdgc_full : Allocator.t
val aggressive_volatility : Allocator.t
val priority_based : Allocator.t

val all_algos : Allocator.t list
(** The seven allocators of the paper's evaluation, then the
    priority-based extension — exactly the registry contents, in
    registration order. *)

val prepare_func : Machine.t -> Cfg.func -> Cfg.func
(** One function through the prepare pipeline (SSA construction and
    destruction, convention lowering, paired-load scheduling).  Every
    stage is per-function, so [prepare] is exactly this mapped over the
    program — the allocation daemon prepares request functions inside
    its pool jobs and still matches the one-shot path bit-for-bit. *)

val prepare : Machine.t -> Cfg.program -> Cfg.program

type allocated = {
  machine : Machine.t;
  program : Cfg.program;  (** finalized machine code *)
  results : Alloc_common.result list;  (** per-function, pre-finalize *)
  finals : Finalize.t list;
  moves_eliminated : int;
  moves_kept : int;
  spill_instrs : int;
  rounds_max : int;
}

val allocate_program :
  ?jobs:int -> Allocator.t -> Machine.t -> Cfg.program -> allocated
(** [jobs] (default [Engine.default_jobs ()], i.e. [PDGC_JOBS] or 1)
    sets the worker pool size; results are merged back in function
    order, so any [jobs] value produces bit-for-bit the sequential
    output.  Every finalized function must lint clean as machine code
    ([Lint.Machine]: well-formed, every register physical and
    allocatable, no [Phi] or [Param]).
    @raise Alloc_common.Failed on allocator failure or on the first
    lint error. *)

val verify_allocated : allocated -> Diagnostic.t list
(** Run the static verifier ({!Verify.result}) over every allocated
    function, returning the raw diagnostics (warnings included).
    Static analysis of each pipeline phase is {!Analyze_driver.run}. *)

val cycles : allocated -> int
(** Dynamic cycles of the finalized program (interpreter). *)
