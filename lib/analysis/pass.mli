(** Static-analysis pass framework.

    A pass inspects one function at one pipeline phase and reports
    {!Diagnostic.t} values; it never rewrites code.  The built-in
    passes are the static list {!Passes.all}; drivers
    ([Analyze_driver], [bin/analyze]) select from it by name and run
    each pass at its phase.

    The three phases mirror the pipeline's stage boundaries:

    - [Ssa]: after SSA construction, before destruction;
    - [Prepared]: after lowering and pair scheduling — allocator input;
    - [Machine]: finalized machine code, with the allocator's result
      it came from.

    The shared {!ctx} gives passes the expensive analyses lazily:
    cheap structural passes force nothing, dataflow passes force only
    liveness or reaching, and the preference-graph pass forces the full
    {!Alloc_common.analysis} (liveness, interference graph, spill
    costs, loop forest) exactly once per function. *)

type phase = Ssa | Prepared | Machine

val phase_label : phase -> string

type ctx = {
  machine : Machine.t;
  result : Alloc_common.result option;
      (** The allocator result the finalized body came from; [Some]
          exactly at [Machine]. *)
  live : Liveness.t Lazy.t;
  reaching : Reaching.t Lazy.t;
  analysis : Alloc_common.analysis Lazy.t;
      (** Full per-round analysis context of the function —
          recomputed, not shared with the allocator's own rounds. *)
}

val ctx : machine:Machine.t -> ?result:Alloc_common.result -> Cfg.func -> ctx
(** Context for one function; every lazy analysis is over that
    function. *)

type t = {
  name : string;
  phase : phase;
  doc : string;  (** one-line description for [--pass] listings *)
  run : ctx -> Cfg.func -> Diagnostic.t list;
}

val v :
  name:string ->
  phase:phase ->
  doc:string ->
  (ctx -> Cfg.func -> Diagnostic.t list) ->
  t
