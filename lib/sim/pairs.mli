(** Paired loads in allocated code.

    {!Finalize} fuses two adjacent loads off the same base at
    consecutive word offsets into one {!Instr.Load_pair} when the
    machine's pairing rule accepts their destination registers
    (different parity on IA-64); the pair then executes at the cost of
    one load. *)

val count_fused : Cfg.func -> int
(** [Load_pair] instructions present in (finalized) code. *)
