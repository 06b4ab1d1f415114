(** Structured verifier diagnostics.

    Every check in the library reports through this type so callers can
    filter, count and render uniformly.  A diagnostic pins the failure
    to a function, block, instruction position and (when meaningful) a
    register, with a machine-readable [reason] and a human-readable
    message. *)

type severity =
  | Error  (** the allocation is wrong; executing it could misbehave *)
  | Warning  (** suspicious but not a correctness violation *)

type reason =
  | Clobbered_value
      (** a use reads a location that no longer holds the value the
          reference function would read *)
  | Undefined_value  (** a use of a value no location provably holds *)
  | Volatile_across_call
      (** a value was left in a caller-save register across a call *)
  | Slot_mismatch  (** spill-slot store/load disagreement *)
  | Bad_pair  (** a paired load violating [Machine.pair_ok] *)
  | Bad_callee_save
      (** a non-volatile register not restored on function exit *)
  | Bad_calling_convention
      (** argument or return value outside its convention register *)
  | Not_allocatable  (** a register outside the machine's file *)
  | Limited_miss
      (** a limited-use instruction landed outside the limited set *)
  | Structure  (** CFG / instruction-pairing / well-formedness violation *)
  | Dead_code
      (** a definition never observed or a block never reached — removable
          code, not a correctness violation *)
  | Pressure
      (** register pressure exceeds the file: MAXLIVE > k, so spill-free
          coloring cannot be certified *)
  | Bad_preference
      (** a preference-graph edge inconsistent with the interference
          graph (dead target, missing mirror, impossible coalesce) *)

type t = {
  func : string;
  block : Instr.label;  (** [-1] when not tied to a block *)
  index : int;  (** instruction position within the block; [-1] if n/a *)
  instr : int;  (** instruction id; [-1] if n/a *)
  reg : Reg.t option;
  severity : severity;
  reason : reason;
  message : string;
}

val v :
  ?block:Instr.label ->
  ?index:int ->
  ?instr:int ->
  ?reg:Reg.t ->
  ?severity:severity ->
  func:string ->
  reason ->
  string ->
  t
(** Smart constructor; [severity] defaults to [Error]. *)

val reason_label : reason -> string
val errors : t list -> t list
(** The error-severity diagnostics, in order. *)

val compare : t -> t -> int
(** Total order by (func, block, index, reason, instr, reg, severity,
    message) — the render order of {!normalize}. *)

val normalize : t list -> t list
(** Sort by {!compare} and drop exact duplicates, so reports render
    byte-identical however the diagnostics were gathered (sequential or
    [jobs > 1] runs, repeated checks). *)

val pp : Format.formatter -> t -> unit

val report : Format.formatter -> t list -> unit
(** Render one diagnostic per line, in the given order; callers wanting
    deterministic output normalize first. *)
