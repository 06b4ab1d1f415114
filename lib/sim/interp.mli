(** IR interpreter and dynamic cycle counter.

    Executes a whole program — virtual, lowered or fully allocated —
    with one shared physical register file (that is what makes lowered
    calling conventions and caller/callee saves meaningful), a frame of
    spill slots per activation, and a word-addressed heap.

    The interpreter serves two purposes:
    - {b semantics oracle}: a correct allocator must not change the
      program's result, so tests compare the value computed before and
      after allocation;
    - {b performance model}: executed instructions are charged the
      paper's cycle costs ({!Costs}), a paired load ({!Instr.Load_pair},
      which {!Finalize} forms only where the machine's pairing rule
      holds) costs one load, and limited operations missing the limited
      set pay the fixup cycle.  The resulting cycle counts are the
      "execution time" series of Figs. 10 and 11. *)

type value = Int of int | Flt of float

type stats = {
  cycles : int;
  instrs : int;
  moves : int;
  mem_ops : int;  (** heap loads + stores *)
  spill_ops : int;  (** frame spills + reloads (incl. save/restore) *)
  calls : int;
  fused_pairs : int;  (** dynamic count of executed [Load_pair]s *)
  limited_fixups : int;
}

type result = { value : value option; stats : stats }

exception Out_of_fuel
exception Runtime_error of string

val run :
  ?machine:Machine.t ->
  ?fuel:int ->
  ?args:value list ->
  Cfg.program ->
  result
(** Runs the program's [main].  [machine] enables the limited-set
    fixup cost and poisons the machine's volatile
    registers after each call returns, before the call's [dst] is
    written, so allocated code that keeps a value in a caller-save
    register across a call reads garbage; omit it for virtual code.  The
    heap is 4096 words; [fuel] defaults to 30 million instructions. *)

val equal_value : value option -> value option -> bool
