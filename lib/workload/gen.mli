(** Synthetic program generation.

    Produces deterministic, terminating, fully initialized IR programs
    whose *character* (call density, loop nesting, floating-point
    share, paired-load opportunities, register pressure) is set by a
    {!profile}.  The call graph is a DAG (function [i] only calls
    functions with larger indices), loops are counted with small trip
    counts, and every variable is defined before use, so the programs
    both allocate and execute cleanly. *)

type profile = {
  name : string;
  seed : int;
  n_funcs : int;
  blocks : int * int;  (** structure segments per function, inclusive *)
  stmts : int * int;  (** statements per straight-line stretch *)
  max_loop_depth : int;
  call_density : float;
  float_ratio : float;
  paired_ratio : float;
  limited_ratio : float;
  pressure : int;  (** target number of simultaneously live values *)
}

val generate : profile -> Cfg.program
(** The program's [main] is the first function; it takes no
    parameters. *)

val default : profile
(** A medium-everything profile, handy for tests. *)
