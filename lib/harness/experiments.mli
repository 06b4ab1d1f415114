(** The paper's evaluation figures, regenerated.

    Each runner produces printable series shaped like the corresponding
    figure; {!print_all} is what [bin/experiments.exe all] emits, pinned
    byte for byte by [experiments_output.txt].  EXPERIMENTS.md records
    the paper-vs-measured comparison. *)

type fig9_row = {
  test : string;  (** benchmark (fp rows are suffixed " fp") *)
  series : (string * float option) list;
      (** algorithm label -> ratio vs. the Chaitin+aggressive base;
          [None] when the base count is zero *)
}

type fig9 = {
  k : int;
  moves_ratio : fig9_row list;  (** Fig. 9(a)/(c) *)
  spills_ratio : fig9_row list;  (** Fig. 9(b)/(d) *)
}

val fig9 : ?jobs:int -> k:int -> unit -> fig9
(** [k] = 16 reproduces Fig. 9(a,b); [k] = 32 reproduces Fig. 9(c,d). *)

type fig10_row = {
  test : string;
  cycles : (string * int) list;  (** algorithm label -> simulated cycles *)
}

val fig10 : ?jobs:int -> k:int -> unit -> fig10_row list
(** One of Fig. 10(a)/(b)/(c) for k = 16 / 24 / 32. *)

type fig11_row = {
  test : string;
  relative : (string * float) list;
      (** algorithm label -> time relative to full preferences *)
}

val fig11 : ?jobs:int -> unit -> fig11_row list
(** Fig. 11: five algorithms at the middle-pressure model (k = 24). *)

val print_fig9 : Format.formatter -> fig9 -> unit
val print_fig10 : Format.formatter -> k:int -> fig10_row list -> unit
val print_fig11 : Format.formatter -> fig11_row list -> unit
val print_all : ?jobs:int -> Format.formatter -> unit -> unit
(** Every figure; [jobs] sizes the {!Engine} worker pool for each
    underlying allocation (default: sequential / [PDGC_JOBS]). *)
