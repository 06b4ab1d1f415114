(* Output quality of allocated programs.  Every metric is a pure
   function of the allocator's output, so it must repeat exactly from
   run to run; [equal] is what the determinism checks compare. *)

type t = {
  mutable cycle_ratios : float list;
      (** per allocated program: allocated cycles / unallocated cycles *)
  mutable prepared_instrs : int;
  mutable final_instrs : int;
  mutable spill_instrs : int;
  mutable moves_kept : int;
  mutable moves_eliminated : int;
}

let create () =
  {
    cycle_ratios = [];
    prepared_instrs = 0;
    final_instrs = 0;
    spill_instrs = 0;
    moves_kept = 0;
    moves_eliminated = 0;
  }

let instrs (p : Cfg.program) =
  List.fold_left (fun acc f -> acc + Cfg.n_instrs f) 0 p.Cfg.funcs

(* The static counts of one allocated program: its prepared input, its
   finalized output and the counts summed over its functions. *)
let add_counts q ~(prepared : Cfg.program) ~(final : Cfg.program) ~spill_instrs
    ~moves_kept ~moves_eliminated =
  q.prepared_instrs <- q.prepared_instrs + instrs prepared;
  q.final_instrs <- q.final_instrs + instrs final;
  q.spill_instrs <- q.spill_instrs + spill_instrs;
  q.moves_kept <- q.moves_kept + moves_kept;
  q.moves_eliminated <- q.moves_eliminated + moves_eliminated

(* Instructions an interpreter run may execute.  Generated programs
   terminate, but a few run tens of millions of instructions (42.7M for
   one javac variant of suite-pdgc seed 9); the interpreter's default
   of 30M would leave them unchecked. *)
let fuel = 200_000_000

(* An interpreter run, or why there is none. *)
let interp ?machine ?(fuel = fuel) p =
  match Interp.run ?machine ~fuel p with
  | r -> Ok r
  | exception Interp.Out_of_fuel -> Error "out of fuel"
  | exception Interp.Runtime_error e -> Error ("runtime error: " ^ e)

(* Run an allocated program, check that it computes what its prepared,
   unallocated form [want] computed, and add its cycle ratio.  Allocated
   code runs about as many instructions as its input (spill and save
   code adds a few); a program needing more than twice as many is
   failed rather than run on, so a defect that makes programs loop
   costs little interpreter time. *)
let add_run q ~machine ~(want : (Interp.result, string) result) (final : Cfg.program) =
  match want with
  | Error e -> Error ("unallocated program: " ^ e)
  | Ok want -> (
      let fuel = (2 * want.Interp.stats.Interp.instrs) + 1_000_000 in
      match interp ~machine ~fuel final with
      | Error e -> Error ("allocated program: " ^ e)
      | Ok got ->
          q.cycle_ratios <-
            (float_of_int got.Interp.stats.Interp.cycles
            /. float_of_int want.Interp.stats.Interp.cycles)
            :: q.cycle_ratios;
          if Interp.equal_value want.Interp.value got.Interp.value then Ok ()
          else Error "allocated program computes a different value")

let merge a b =
  a.cycle_ratios <- b.cycle_ratios @ a.cycle_ratios;
  a.prepared_instrs <- a.prepared_instrs + b.prepared_instrs;
  a.final_instrs <- a.final_instrs + b.final_instrs;
  a.spill_instrs <- a.spill_instrs + b.spill_instrs;
  a.moves_kept <- a.moves_kept + b.moves_kept;
  a.moves_eliminated <- a.moves_eliminated + b.moves_eliminated

(* Equal records, whatever order programs were added in. *)
let equal a b =
  List.sort compare a.cycle_ratios = List.sort compare b.cycle_ratios
  && { a with cycle_ratios = [] } = { b with cycle_ratios = [] }

let fi = float_of_int

(* The four end-to-end quality metrics: (name, unit, value). *)
let metrics q =
  [
    ("sim_cycles_ratio", "ratio", Stats.geomean (List.sort compare q.cycle_ratios));
    ( "spill_per_kinstr",
      "count/kinstr",
      Stats.ratio (1000. *. fi q.spill_instrs) (fi q.prepared_instrs) );
    ( "moves_kept_ratio",
      "ratio",
      Stats.ratio (fi q.moves_kept) (fi (q.moves_kept + q.moves_eliminated)) );
    ("code_growth", "ratio", Stats.ratio (fi q.final_instrs) (fi q.prepared_instrs));
  ]
