(** Preference-strength evaluation — the paper's Appendix.

    [Str(V, P) = Mem_Cost(V) - Ideal_Cost(V, P)] where
    [Mem_Cost = Spill_Cost + Op_Cost] and
    [Ideal_Cost = Call_Cost + Ideal_Op_Cost].  Expanding, a preference's
    strength is

    [Spill_Cost(V) + discount(P) - Call_Cost(V, kind)]

    where [discount] is the operation saving at the site that motivates
    the preference (the eliminated copy for a coalesce, the fused load
    for a sequential pair) and [Call_Cost] depends on the register kind
    [V] would end up in: [3 x Σ freq(crossed calls)] for a volatile
    register, the flat callee-save cost 2 for a non-volatile one.

    Because the kind is not known until a register is picked, strengths
    are kept as a {!weight} pair — this is the paper's "strengths
    evaluation functions can have a parameter", visible in its Fig. 7
    where the same coalesce edge weighs 40 toward a volatile register
    and 38 toward a non-volatile one. *)

type weight = { vol : int; nonvol : int }

val best : weight -> int
val weight_for : volatile:bool -> weight -> int
val pp_weight : Format.formatter -> weight -> unit

type t

val of_analysis : Alloc_common.analysis -> t
(** The strengths of one allocation round, built from its spill costs,
    liveness and loop forest. *)

val spill_cost : t -> Reg.t -> int
val crossings : t -> Reg.t -> int
(** Frequency-weighted count of calls the register is live across; 0
    for a physical register or one the round's body does not use. *)

val freq_of_instr : t -> int -> int
(** Execution frequency of an instruction (by id). *)

val volatility : t -> Reg.t -> weight
(** Strength of "prefer a register of this kind" with no operation
    discount: [vol = Spill_Cost - 3 Σ f], [nonvol = Spill_Cost - 2]. *)

val coalesce : t -> Reg.t -> instr_id:int -> weight
(** Strength for [V] of coalescing the copy [instr_id].  The copy's
    cost is discounted when it defines [V] or is the last use of [V]. *)

val sequential : t -> Reg.t -> instr_id:int -> weight
(** Strength for [V] of pairing the load [instr_id] (discount: the
    fused load's 2-cycle cost). *)

val limited : t -> Reg.t -> instr_id:int -> weight
(** Strength of landing the [Limited] op's destination in the limited
    set (discount: the avoided fixup). *)

val memory : t -> Reg.t -> int
(** Strength of the memory preference: positive when spilling beats the
    best register residence, ie. [- best (volatility t v)] clamped at 0. *)
