(** The machine model of the paper's evaluation (§4).

    A machine is a register file of [k] allocatable registers per class
    (integer and float files are symmetric), split into a volatile
    (caller-save) prefix and a non-volatile (callee-save) suffix.  The
    calling convention passes arguments in the first volatile registers
    after the return register and returns values in [ret_index].  A
    small prefix of the file forms the "limited set" some instructions
    prefer (paper §3.1), and [pair_rule] says which register pairs a
    paired memory operation may name. *)

type pair_rule =
  | Parity  (** the two registers must have opposite parity *)
  | Consecutive  (** the high register must be exactly low + 1 *)

type t = {
  name : string;
  k : int;  (** allocatable registers per class *)
  n_volatile : int;  (** indices [0, n_volatile) are caller-save *)
  n_arg_regs : int;  (** per-class argument registers *)
  ret_index : int;  (** index of the return register *)
  limited_size : int;  (** indices [0, limited_size) form the limited set *)
  pair_rule : pair_rule;
}

val make :
  ?name:string ->
  ?n_volatile:int ->
  ?n_arg_regs:int ->
  ?ret_index:int ->
  ?limited_size:int ->
  ?pair_rule:pair_rule ->
  k:int ->
  unit ->
  t
(** Defaults: half the file volatile, [n_volatile - 1] argument
    registers, return register 0, limited set of [max 2 (k / 4)],
    [Parity] pairing.
    @raise Invalid_argument for an odd [k], a [k] below 4 or above 62,
    or a volatile prefix, argument block, return register or limited
    set that does not fit the file. *)

val middle_pressure : t
(** k = 24, the paper's middle register pressure (its high and low
    pressure files are [make ~k:16 ()] and [make ~k:32 ()]). *)

val is_allocatable : t -> Reg.t -> bool
(** Physical with index below [k]. *)

val is_volatile : t -> Reg.t -> bool
(** Physical with index below [n_volatile]: clobbered by calls. *)

val in_limited_set : t -> Reg.t -> bool
(** Physical with index below [limited_size]. *)

(** {2 The register file as masks}

    Bit [j] of a register mask stands for the register of index [j] of
    whichever class is at hand (the two files are symmetric).  {!make}
    keeps [k <= 62 = Sys.int_size - 1], so a whole file fits the
    non-negative bits of one int and every allocator can screen and
    pick registers with word operations. *)

val file_mask : t -> int
(** Bits [0, k): every allocatable register. *)

val volatile_mask : t -> int
(** Bits [0, n_volatile): the caller-save registers. *)

val nonvolatile_mask : t -> int
(** Bits [n_volatile, k): the callee-save registers. *)

val limited_mask : t -> int
(** Bits [0, limited_size): the limited set. *)

val pick : prefer:int -> int -> int
(** [pick ~prefer free]: the index of the lowest register in
    [free land prefer], else of the lowest in [free], else [-1] when
    [free] is empty — the final register choice of every allocator
    (paper §5.3 step 4.4, and §6.2's "non-volatile registers first"
    with [prefer = nonvolatile_mask m]). *)

val arg_reg : t -> Reg.cls -> int -> Reg.t
(** The [i]th argument register of the class.
    @raise Invalid_argument when [i >= n_arg_regs]. *)

val ret_reg : t -> Reg.cls -> Reg.t

val pair_ok : t -> Reg.t -> Reg.t -> bool
(** May [lo, hi] be named by one paired memory operation?  Both must be
    allocatable registers of the same class satisfying [pair_rule]. *)
