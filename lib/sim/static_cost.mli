(** Static cycle estimation.

    Frequency-weighted sum of instruction costs over the body:
    [Σ freq(block) * cost(instr)]; with [machine], limited operations
    outside the limited set pay the fixup, as in the dynamic model
    (a finalized [Load_pair] costs one load in both).
    A fast, deterministic stand-in for the interpreter when only
    relative magnitudes matter. *)

val func : ?machine:Machine.t -> Cfg.func -> int
