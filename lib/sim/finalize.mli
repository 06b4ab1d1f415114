(** Post-allocation finalization.

    Applies a register assignment to a function body and produces
    executable machine-level code:

    - every virtual register is replaced by its physical register;
    - copies whose ends received the same register disappear (these are
      the "eliminated moves" of Fig. 9 — whether they were removed by
      merge-based coalescing or by biased/preference-directed selection
      is invisible here, which makes the metric uniform across
      allocators);
    - a prologue stores every used non-volatile register to a frame
      slot and each return restores them (callee saves);
    - around every call, volatile registers holding live values are
      saved and restored (caller saves);
    - adjacent loads whose destination registers satisfy the machine's
      pairing rule fuse into {!Instr.Load_pair};
    - limited-op fixups remain cost-model effects charged by the
      interpreter and the static estimator. *)

type t = {
  func : Cfg.func;  (** physical-register code *)
  moves_eliminated : int;  (** static count of deleted copies *)
  moves_kept : int;
  pairs_fused : int;  (** adjacent loads fused into [Load_pair] *)
  callee_saved : int;  (** non-volatile registers saved in the prologue *)
  caller_save_instrs : int;  (** save/restore instructions around calls *)
}

val apply : Machine.t -> Alloc_common.result -> t
