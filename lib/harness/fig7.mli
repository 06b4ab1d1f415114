(** The paper's worked example (Fig. 7).

    The ten-instruction loop of Fig. 7(a), on a three-register machine
    whose first two registers are volatile (the paper's r1, r2 — our
    r0, r1; r0 doubles as the argument and return register) and whose
    third is non-volatile (the paper's r3, our r2).

    The module reproduces every artifact of the figure: the Register
    Preference Graph with its strengths (the coalesce edge of v3 toward
    v0 weighs 40 toward a volatile register and 38 toward a
    non-volatile one; v4's preference for a non-volatile register
    weighs 28), the simplification stack, the Coloring Precedence
    Graphs for k = 3 and k >= 4, and the final preference-directed
    assignment in which every copy disappears, v4 lands in the
    non-volatile register and the two loads pair up. *)

type regs = { v0 : Reg.t; v1 : Reg.t; v2 : Reg.t; v3 : Reg.t; v4 : Reg.t }

val machine : Machine.t
(** k = 3: r0 (volatile, argument and return), r1 (volatile),
    r2 (non-volatile). *)

val build : unit -> Cfg.func * regs
(** A fresh copy of the Fig. 7(a) function (already in explicit
    calling-convention form: [arg0] is the physical r0). *)

type artifacts = {
  func : Cfg.func;
  regs : regs;  (** as web registers after renumbering *)
  strength : Strength.t;
  rpg : Rpg.t;
  cpg3 : Cpg.t;  (** precedence graph at k = 3 *)
  cpg4 : Cpg.t;  (** precedence graph at k = 4 *)
  assignment : (Reg.t * Reg.t) list;  (** web -> register, v0..v4 order *)
}

val run : unit -> artifacts
(** Builds every artifact and runs the full preference-directed
    allocation at k = 3. *)

val print : Format.formatter -> unit -> unit
(** Renders the whole walkthrough (used by the example binary and
    [experiments fig7]). *)
