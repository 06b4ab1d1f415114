(** The static cost model shared by the allocators' spill/preference
    arithmetic (paper §3.2), the interpreter's cycle accounting and the
    static cost estimator.  All costs are cycles. *)

val op : int
(** Any ALU operation. *)

val move : int
(** A register-to-register copy. *)

val load : int
(** A memory load (and a spill reload). *)

val store : int
(** A memory store (and a spill store). *)

val memory_op : int
(** The cycle a paired load saves over two separate loads: the benefit
    of satisfying a sequential preference. *)

val limited_fixup : int
(** Extra cycles when a limited instruction's operand sits outside the
    limited set and must be shuffled in. *)

val save_restore : int
(** Caller-save cost per call crossing: one store plus one load around
    the call. *)

val callee_save : int
(** Amortized one-time cost of dirtying a non-volatile register: its
    save/restore pair runs once per invocation, not per crossing. *)

val call_overhead : int
(** Fixed per-call bookkeeping charged by the interpreter. *)

val inst_cost : Instr.kind -> int
(** The interpreter's charge for one executed instruction.  [Phi] and
    [Param] are free (they never survive to machine code); paired loads
    are charged once as a [load]. *)
