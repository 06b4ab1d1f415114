(* Command-line driver for the paper's experiments.

   `experiments fig7` / `fig9` / `fig10` / `fig11` / `ablation` / `all`
   regenerate the corresponding tables; `experiments alloc NAME` runs one
   allocator over one benchmark and reports its metrics.  Every
   subcommand that allocates takes `--jobs N` to fan per-function
   allocation out over N engine workers (default: $PDGC_JOBS or 1;
   results are identical at any N). *)

open Cmdliner

let ppf = Format.std_formatter

(* Allocators are looked up in the registry; an unknown key is a clean
   diagnostic listing the valid names, not a backtrace. *)
let resolve_algo key =
  match Allocator.find key with
  | Some a -> a
  | None ->
      Format.eprintf "experiments: unknown allocator %S@.valid names: %s@." key
        (String.concat ", " (Allocator.names ()));
      exit 2

let fig7_cmd =
  let doc = "Reproduce the worked example of Fig. 7." in
  Cmd.v (Cmd.info "fig7" ~doc)
    Term.(const (fun () -> Format.fprintf ppf "%a@." Fig7.print ()) $ const ())

(* A k that [Machine.make] rejects is bad usage (exit code 2, see
   [main]), not an uncaught exception. *)
let k_arg ~default =
  let doc = "Registers per class: even, 4 to 62 (the paper uses 16, 24, 32)." in
  let check k =
    match Machine.make ~k () with
    | (_ : Machine.t) -> `Ok k
    | exception Invalid_argument msg -> `Error (true, msg)
  in
  Term.(
    ret
      (const check
      $ Arg.(value & opt int default & info [ "k" ] ~docv:"K" ~doc)))

let jobs_arg =
  let doc =
    "Allocation engine workers (per-function jobs run on $(docv) OCaml \
     domains; output is identical at any value)."
  in
  Arg.(
    value
    & opt int (Engine.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let table_cmd name ~doc term =
  let run tables = Format.fprintf ppf "%a@." Experiments.print tables in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ term)

let fig9_cmd =
  table_cmd "fig9" ~doc:"Reproduce Fig. 9: coalescing and spill ratios vs. Chaitin."
    Term.(
      const (fun k jobs -> Experiments.fig9 ~jobs ~k ())
      $ k_arg ~default:16 $ jobs_arg)

let fig10_cmd =
  table_cmd "fig10"
    ~doc:"Reproduce Fig. 10: simulated execution time per pressure model."
    Term.(
      const (fun k jobs -> Experiments.fig10 ~jobs ~k ())
      $ k_arg ~default:24 $ jobs_arg)

let fig11_cmd =
  table_cmd "fig11" ~doc:"Reproduce Fig. 11: relative time of five allocators at k=24."
    Term.(const (fun jobs -> Experiments.fig11 ~jobs ()) $ jobs_arg)

let ablation_cmd =
  table_cmd "ablation"
    ~doc:"Ablation study of the design choices (DESIGN.md section 8)."
    Term.(const (fun jobs -> Experiments.ablation ~jobs ()) $ jobs_arg)

let all_cmd =
  let doc = "Run every experiment (Figs. 7, 9, 10, 11)." in
  let run jobs = Format.fprintf ppf "%a@." (Experiments.print_all ~jobs) () in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ jobs_arg)

let alloc_cmd =
  let doc = "Allocate one benchmark with one algorithm and report metrics." in
  let bench =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun n -> (n, n)) Suite.names))) None
      & info [] ~docv:"BENCH")
  in
  let algo =
    let doc = "Allocator registry key (see `experiments list`)." in
    Arg.(value & opt string "pdgc" & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)
  in
  let run name algo_key k jobs =
    let algo = resolve_algo algo_key in
    let m = Machine.make ~k () in
    let prepared = Pipeline.prepare m (Suite.program name) in
    let before = Interp.run prepared in
    let a = Pipeline.allocate_program ~jobs algo m prepared in
    let after = Interp.run ~machine:m a.Pipeline.program in
    Format.fprintf ppf
      "%s on %s (k=%d, jobs=%d):@.  moves eliminated %d, kept %d@.  spill \
       instructions %d@.  rounds %d@.  simulated cycles %d (was %d virtual)@.  \
       result preserved: %b@."
      algo.Allocator.label name k jobs a.Pipeline.moves_eliminated
      a.Pipeline.moves_kept a.Pipeline.spill_instrs a.Pipeline.rounds_max
      after.Interp.stats.Interp.cycles before.Interp.stats.Interp.cycles
      (Interp.equal_value before.Interp.value after.Interp.value)
  in
  Cmd.v (Cmd.info "alloc" ~doc)
    Term.(const run $ bench $ algo $ k_arg ~default:24 $ jobs_arg)

let list_cmd =
  let doc = "List the registered allocators (registry key and label)." in
  let run () =
    List.iter
      (fun a ->
        Format.fprintf ppf "%-12s %s@." a.Allocator.name a.Allocator.label)
      (Allocator.all ())
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let main =
  let doc = "Preference-directed graph coloring: experiment runner" in
  Cmd.group
    (Cmd.info "experiments" ~doc)
    [
      fig7_cmd; fig9_cmd; fig10_cmd; fig11_cmd; ablation_cmd; all_cmd;
      alloc_cmd; list_cmd;
    ]

(* Bad usage is exit code 2, as for the other drivers; cmdliner's own
   code for a malformed option value is 124. *)
let () =
  match Cmd.eval ~term_err:2 main with
  | c when c = Cmd.Exit.cli_error -> exit 2
  | c -> exit c
