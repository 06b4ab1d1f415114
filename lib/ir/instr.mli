(** Instructions of the register-transfer intermediate language.

    The IR is a conventional three-address code over virtual registers,
    rich enough to express everything the paper's allocator observes:
    copies (coalescing candidates), loads that may be fused into paired
    loads, calls (caller/callee save costs, dedicated argument and
    return registers), and operations with limited register usage. *)

type label = int

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type unop =
  | Neg
  | Not
  | Itof  (** int to float; source is an integer register *)
  | Ftoi  (** float to int; source is a float register *)

type kind =
  | Move of { dst : Reg.t; src : Reg.t }
  | Const of { dst : Reg.t; value : int64 }
      (** For a float-class destination, [value] holds the IEEE bits. *)
  | Unop of { op : unop; dst : Reg.t; src : Reg.t }
  | Binop of { op : binop; dst : Reg.t; src1 : Reg.t; src2 : Reg.t }
  | Cmp of { op : cmp; dst : Reg.t; src1 : Reg.t; src2 : Reg.t }
      (** [dst] is an integer register (0 or 1) whatever the class of the
          sources. *)
  | Load of { dst : Reg.t; base : Reg.t; offset : int }
      (** Word load from [base + offset].  Two adjacent loads off the
          same base at consecutive word offsets are paired-load
          candidates (the paper's sequential± preference). *)
  | Load_pair of { dst_lo : Reg.t; dst_hi : Reg.t; base : Reg.t; offset : int }
      (** Fused paired load: [dst_lo = [base+offset]] and
          [dst_hi = [base+offset+8]] in one two-cycle issue.  Emitted by
          the finalizer when the machine's pairing rule accepts the two
          destination registers; never present before allocation. *)
  | Store of { src : Reg.t; base : Reg.t; offset : int }
  | Limited of { dst : Reg.t; src : Reg.t }
      (** An operation whose destination has "limited register usage"
          (paper §3.1, second preference type): it executes in one cycle
          when [dst] lands in the target's limited register set and
          needs a one-cycle fixup otherwise. *)
  | Call of { dst : Reg.t option; callee : string; args : Reg.t list }
  | Param of { dst : Reg.t; index : int }
      (** Abstract parameter read; only valid before lowering to a
          concrete calling convention. *)
  | Spill of { src : Reg.t; slot : int }
      (** Store to a stack-frame slot: spill code, caller saves and
          callee saves.  Costs one cycle like [Store]. *)
  | Reload of { dst : Reg.t; slot : int }
      (** Load from a stack-frame slot.  Costs two cycles like [Load]. *)
  | Jump of label
  | Branch of { cond : Reg.t; ifso : label; ifnot : label }
  | Ret of Reg.t option
  | Phi of { dst : Reg.t; srcs : (label * Reg.t) list }
      (** Only valid while in SSA form. *)

type t = { id : int; kind : kind }
(** [id] is unique within a function; fresh ids come from the enclosing
    {!Cfg.func}. *)

val dummy : t
(** Placeholder instruction (id [-1], [Ret None]) used to initialise
    arrays before they are filled; never part of a function body. *)

val defs : kind -> Reg.t list
(** Registers written by the instruction. *)

val uses : kind -> Reg.t list
(** Registers read by the instruction.  For [Phi] this is every source;
    use {!phi_srcs} for per-edge treatment. *)

val is_terminator : kind -> bool

val successors : kind -> label list
(** Branch targets of a terminator; [[]] for [Ret] and non-terminators. *)

val map_regs : (Reg.t -> Reg.t) -> kind -> kind
(** Rewrite every register occurrence (defs and uses). *)

val map_uses : (Reg.t -> Reg.t) -> kind -> kind
val map_defs : (Reg.t -> Reg.t) -> kind -> kind

val phi_srcs : kind -> (label * Reg.t) list
(** Sources of a [Phi]; [[]] otherwise. *)

val pp_binop : Format.formatter -> binop -> unit
val pp_cmp : Format.formatter -> cmp -> unit
val pp_unop : Format.formatter -> unop -> unit
val pp_kind : Format.formatter -> kind -> unit
val pp : Format.formatter -> t -> unit
