(** The paper's evaluation figures and the ablation study, regenerated.

    Every figure is a list of tables of one shape, printed by {!print};
    {!print_all} is what [bin/experiments.exe all] emits, pinned byte
    for byte by [experiments_output.txt] ([ablation_output.txt] pins
    {!ablation}).  Each table prepares every Suite program once and
    allocates it once per column.  EXPERIMENTS.md records the
    paper-vs-measured comparison. *)

type cell =
  | Ratio of float
  | Na  (** a ratio over a zero base count *)
  | Cycles of int  (** simulated cycles *)

type row = {
  test : string;  (** benchmark (fp rows are suffixed " fp") *)
  cells : cell list;  (** one per column *)
}

type table = {
  title : string;
  columns : string list;  (** algorithm or configuration labels *)
  rows : row list;
  geomean : bool;
      (** end with a geometric-mean row over each column's positive
          ratios *)
}

val fig9 : ?jobs:int -> k:int -> unit -> table list
(** Eliminated-move and spill-code ratios vs. the Chaitin+aggressive
    base, {!Na} where its count is zero.  [k] = 16 reproduces Fig. 9(a,b);
    [k] = 32 reproduces Fig. 9(c,d). *)

val fig10 : ?jobs:int -> k:int -> unit -> table list
(** Simulated cycles: one of Fig. 10(a)/(b)/(c) for k = 16 / 24 / 32. *)

val fig11 : ?jobs:int -> unit -> table list
(** Fig. 11: five algorithms at the middle-pressure model (k = 24),
    cycles relative to full preferences. *)

val ablation_configs : Allocator.t list
(** The ablation's configurations, the paper's first. *)

val ablation : ?jobs:int -> unit -> table list
(** Ablation study of the design choices DESIGN.md calls out.

    All configurations run the full-preference system at the
    middle-pressure model (k = 24) over the benchmark suite, varying
    one axis at a time:

    - {b node choice} (§5.3 step 3): the paper's strength differential
      vs. greedy strongest-preference-first vs. FIFO;
    - {b order relaxation} (§5.2): the CPG partial order vs. the strict
      simplification-stack order (everything else identical);
    - {b rematerialization} (an extension the paper deliberately leaves
      out): re-issue spilled constants instead of reloading them;
    - plus the {b priority-based} allocator of Chow & Hennessy (§7) as
      the non-Chaitin reference point.

    Rows report simulated cycles relative to the paper configuration. *)

val print : Format.formatter -> table list -> unit
(** The tables back to back, every line ending in a newline. *)

val print_all : ?jobs:int -> Format.formatter -> unit -> unit
(** Every figure; [jobs] sizes the {!Engine} worker pool for each
    underlying allocation (default: sequential / [PDGC_JOBS]). *)
