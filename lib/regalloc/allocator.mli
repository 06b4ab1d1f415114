(** The unified allocator API and registry.

    Every register allocator in the system is a first-class
    {!t} value: a CLI/registry name, the series label used in the
    paper's figures, and a [run] function.  The registry maps names to
    allocators so that the pipeline, the experiment harness, the
    benchmark and the CLI tools all share one lookup path instead of
    per-module entry points.

    {2 Domain-safety contract}

    [run] is called concurrently from several OCaml domains by the
    parallel allocation engine, one call per function job.  An
    implementation must therefore confine every piece of mutable state
    — interference-graph scratch, dense-bitset numberings, cached
    instruction numberings, any [Hashtbl]/[ref] memo — to the dynamic
    extent of a single [run] call.  No mutable state may be shared
    across jobs, and [run] must not mutate the input function
    ({!Alloc_common.drive}, which every in-tree allocator runs on,
    clones it first).  Allocators that follow this rule are
    deterministic under any job schedule: the engine asserts
    parallel ≡ sequential bit-for-bit. *)

type t = {
  name : string;  (** registry key, used on the command line *)
  label : string;  (** series name used in the paper's figures *)
  run : Machine.t -> Cfg.func -> Alloc_common.result;
}

val v :
  name:string ->
  label:string ->
  (Machine.t -> Cfg.func -> Alloc_common.result) ->
  t
(** [v ~name ~label run] is the allocator value [{ name; label; run }]. *)

val exec : t -> Machine.t -> Cfg.func -> Alloc_common.result
(** [exec a m f] runs [a] on one function. *)

val register : t -> unit
(** Add an allocator to the registry.
    @raise Invalid_argument if the name is already registered. *)

val find : string -> t option
(** Total lookup by name; [None] for unknown keys (callers decide how
    to report — CLI drivers list {!names} and exit 2). *)

val all : unit -> t list
(** Every registered allocator, in registration order (the pipeline
    registers the paper's seven series first, then the priority-based
    extension). *)

val names : unit -> string list
(** Registry keys in registration order. *)
