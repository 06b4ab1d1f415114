(* End-to-end pipeline and experiment-harness tests. *)

open Helpers

let test_prepare_lowers_and_destructs () =
  let m = Machine.middle_pressure in
  let p = Pipeline.prepare m (Suite.program "compress") in
  List.iter
    (fun fn ->
      Cfg.iter_instrs fn (fun _ i ->
          match i.Instr.kind with
          | Instr.Param _ -> Alcotest.fail "Param survived lowering"
          | Instr.Phi _ -> Alcotest.fail "Phi survived destruction"
          | _ -> ()))
    p.Cfg.funcs

let test_prepare_preserves_semantics () =
  let m = Machine.middle_pressure in
  List.iter
    (fun (name, p) ->
      let before = Interp.run p in
      let after = Interp.run (Pipeline.prepare m p) in
      check Alcotest.bool (name ^ " prepared semantics") true
        (Interp.equal_value before.Interp.value after.Interp.value))
    (Suite.all ())

(* Preparing and allocating one program twice gives the same reply
   bytes, and leaves the program's fresh-name counters as they were. *)
let test_prepare_leaves_input_untouched () =
  let m = Machine.make ~k:16 () in
  let p = Suite.program "jess" in
  let counters () =
    List.map
      (fun (f : Cfg.func) ->
        (f.Cfg.next_reg, f.Cfg.next_label, f.Cfg.next_instr_id))
      p.Cfg.funcs
  in
  let before = counters () in
  let replies () =
    let a =
      Pipeline.allocate_program Pipeline.pdgc_full m (Pipeline.prepare m p)
    in
    List.map2 Protocol.encode_func_reply a.Pipeline.results a.Pipeline.finals
  in
  let first = replies () in
  check Alcotest.(list string) "same reply bytes" first (replies ());
  check
    Alcotest.(list (triple int int int))
    "counters untouched" before (counters ())

let suite_end_to_end name k =
  let m = Machine.make ~k () in
  let p = Pipeline.prepare m (Suite.program name) in
  let before = Interp.run p in
  List.iter
    (fun algo ->
      let a = Pipeline.allocate_program algo m p in
      let after = Interp.run ~machine:m a.Pipeline.program in
      check Alcotest.bool
        (Printf.sprintf "%s on %s at k=%d" algo.Allocator.name name k)
        true
        (Interp.equal_value before.Interp.value after.Interp.value))
    paper_algos

let test_jess_end_to_end_16 () = suite_end_to_end "jess" 16
let test_compress_end_to_end_16 () = suite_end_to_end "compress" 16
let test_mpegaudio_end_to_end_24 () = suite_end_to_end "mpegaudio" 24
let test_javac_end_to_end_16 () = suite_end_to_end "javac" 16
let test_db_end_to_end_32 () = suite_end_to_end "db" 32
let test_mtrt_end_to_end_24 () = suite_end_to_end "mtrt" 24
let test_jack_end_to_end_16 () = suite_end_to_end "jack" 16

(* Experiment harness ---------------------------------------------------- *)

let test_fig9_shape () =
  match Experiments.fig9 ~k:16 () with
  | [ moves; spills ] ->
      check Alcotest.string "k recorded"
        "Fig. 9(a): eliminated moves ratio (vs. chaitin+aggressive, k=16)"
        moves.Experiments.title;
      (* 7 integer rows + 2 fp rows. *)
      check Alcotest.int "rows" 9 (List.length moves.Experiments.rows);
      check Alcotest.int "spill rows" 9 (List.length spills.Experiments.rows);
      List.iter
        (fun (row : Experiments.row) ->
          check Alcotest.int ("series of " ^ row.Experiments.test) 3
            (List.length row.Experiments.cells);
          (* Move-elimination ratios hover near 1. *)
          List.iter2
            (fun label v ->
              match v with
              | Experiments.Ratio x ->
                  check Alcotest.bool
                    (Printf.sprintf "%s/%s ratio sane (%.2f)"
                       row.Experiments.test label x)
                    true
                    (x > 0.5 && x < 1.5)
              | Experiments.Na | Experiments.Cycles _ -> ())
            moves.Experiments.columns row.Experiments.cells)
        moves.Experiments.rows
  | tables -> Alcotest.failf "fig9: %d tables, want 2" (List.length tables)

let the_table = function
  | [ t ] -> t
  | tables -> Alcotest.failf "%d tables, want 1" (List.length tables)

let test_fig10_shape () =
  let t = the_table (Experiments.fig10 ~k:24 ()) in
  check Alcotest.int "7 tests" 7 (List.length t.Experiments.rows);
  List.iter
    (fun (row : Experiments.row) ->
      check Alcotest.int "3 algorithms" 3 (List.length row.Experiments.cells);
      List.iter
        (function
          | Experiments.Cycles c ->
              check Alcotest.bool "positive cycles" true (c > 0)
          | Experiments.Ratio _ | Experiments.Na ->
              Alcotest.fail "cycle count expected")
        row.Experiments.cells)
    t.Experiments.rows

let test_fig11_full_is_baseline () =
  let t = the_table (Experiments.fig11 ()) in
  check Alcotest.int "7 tests" 7 (List.length t.Experiments.rows);
  List.iter
    (fun (row : Experiments.row) ->
      match
        List.assoc_opt "full preferences"
          (List.combine t.Experiments.columns row.Experiments.cells)
      with
      | Some (Experiments.Ratio v) ->
          check (Alcotest.float 1e-9) ("full = 1.0 on " ^ row.Experiments.test)
            1.0 v
      | Some _ | None -> Alcotest.fail "full preferences series missing")
    t.Experiments.rows

let test_metrics_counts () =
  let m = Machine.middle_pressure in
  let p = Pipeline.prepare m (Suite.program "jess") in
  let before = Metrics.moves p in
  check Alcotest.bool "program has copies" true
    (before.Metrics.ints + before.Metrics.floats > 0);
  let a = Pipeline.allocate_program Pipeline.chaitin_base m p in
  let elim = Metrics.eliminated_moves ~before:p ~after:a.Pipeline.program in
  check Alcotest.int "eliminated matches finalize totals"
    a.Pipeline.moves_eliminated (elim.Metrics.ints + elim.Metrics.floats)

let test_cli_figures_run () =
  (* The printers must render without raising. *)
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "%a@." Fig7.print ();
  check Alcotest.bool "fig7 text" true (Buffer.length buf > 100)

let () =
  Alcotest.run "pipeline"
    [
      ( "prepare",
        [
          tc "lowering and destruction complete" test_prepare_lowers_and_destructs;
          tc "semantics preserved" test_prepare_preserves_semantics;
          tc "input left untouched" test_prepare_leaves_input_untouched;
        ] );
      ( "end-to-end",
        [
          tc "jess k=16" test_jess_end_to_end_16;
          tc "compress k=16" test_compress_end_to_end_16;
          tc "mpegaudio k=24" test_mpegaudio_end_to_end_24;
          tc "javac k=16" test_javac_end_to_end_16;
          tc "db k=32" test_db_end_to_end_32;
          tc "mtrt k=24" test_mtrt_end_to_end_24;
          tc "jack k=16" test_jack_end_to_end_16;
        ] );
      ( "experiments",
        [
          tc "fig9 shape" test_fig9_shape;
          tc "fig10 shape" test_fig10_shape;
          tc "fig11 baseline" test_fig11_full_is_baseline;
          tc "metrics consistency" test_metrics_counts;
          tc "fig7 printer" test_cli_figures_run;
        ] );
    ]
