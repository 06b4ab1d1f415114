(** Priority-based coloring (Chow & Hennessy, TOPLAS 1990) — the
    non-Chaitin tradition the paper contrasts with in §7.

    Instead of packing live ranges through simplification, ranges are
    colored directly in priority order: the benefit of register
    residence divided by the range's size, so short, hot ranges win
    registers first even if that uses more colors.  Unconstrained
    ranges (degree below [k]) are colored last — they can always take a
    register.

    This implementation keeps the priority function and ordering but
    replaces the original's live-range *splitting* with Chaitin-style
    spill-everywhere code, which slightly disadvantages it on programs
    with long sparse ranges; see DESIGN.md. *)

val allocate : Machine.t -> Cfg.func -> Alloc_common.result

val allocator : Allocator.t
(** Registry value for this allocator. *)
