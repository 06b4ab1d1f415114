(* Workload generator and suite tests. *)

open Helpers

let test_rng_deterministic () =
  let a = Rng.create 5 and b = Rng.create 5 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_range () =
  let r = Rng.create 9 in
  for _ = 1 to 200 do
    let x = Rng.range r 3 7 in
    check Alcotest.bool "in range" true (x >= 3 && x <= 7)
  done

let test_rng_split_independent () =
  let r = Rng.create 1 in
  let s = Rng.split r in
  (* Streams differ. *)
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int r 1_000_000 <> Rng.int s 1_000_000 then differs := true
  done;
  check Alcotest.bool "split independent" true !differs

let test_rng_pick () =
  let r = Rng.create 3 in
  for _ = 1 to 50 do
    check Alcotest.bool "picked member" true
      (List.mem (Rng.pick r [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick r ([] : int list)))

let test_generator_deterministic () =
  let p1 = Suite.program "db" and p2 = Suite.program "db" in
  let sig_of p =
    List.map
      (fun fn ->
        (fn.Cfg.name, Cfg.fold_instrs fn (fun a _ _ -> a + 1) 0))
      p.Cfg.funcs
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "identical" (sig_of p1) (sig_of p2)

let test_suite_programs_valid () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun fn ->
          check Alcotest.bool
            (Printf.sprintf "%s/%s valid" name fn.Cfg.name)
            true
            (Result.is_ok (Cfg.validate fn)))
        p.Cfg.funcs)
    (Suite.all ())

let test_suite_has_main () =
  List.iter
    (fun (name, p) ->
      let main = Cfg.find_func p p.Cfg.main in
      check Alcotest.int (name ^ " main takes no params") 0 main.Cfg.n_params)
    (Suite.all ())

let test_suite_runs () =
  List.iter
    (fun (name, p) ->
      let r = Interp.run p in
      check Alcotest.bool (name ^ " returns a value") true
        (r.Interp.value <> None))
    (Suite.all ())

let test_unknown_benchmark () =
  Alcotest.check_raises "unknown"
    (Invalid_argument "Suite.profile: unknown benchmark nope") (fun () ->
      ignore (Suite.profile "nope"))

let test_character_call_density () =
  (* jack is the most call-dense test; compress the least. *)
  let count_calls p =
    List.fold_left
      (fun acc fn ->
        Cfg.fold_instrs fn
          (fun a _ i ->
            match i.Instr.kind with Instr.Call _ -> a + 1 | _ -> a)
          acc)
      0 p.Cfg.funcs
  in
  let instrs p =
    List.fold_left
      (fun acc fn -> acc + Cfg.fold_instrs fn (fun a _ _ -> a + 1) 0)
      0 p.Cfg.funcs
  in
  let density name =
    let p = Suite.program name in
    float_of_int (count_calls p) /. float_of_int (instrs p)
  in
  check Alcotest.bool "jack > compress" true
    (density "jack" > density "compress")

let test_character_float_share () =
  let float_regs p =
    List.fold_left
      (fun acc fn ->
        Reg.Set.fold
          (fun r a ->
            if Cfg.cls_of fn r = Reg.Float_class then a + 1 else a)
          (Cfg.all_vregs fn) acc)
      0 p.Cfg.funcs
  in
  check Alcotest.bool "mpegaudio uses more floats than jack" true
    (float_regs (Suite.program "mpegaudio") > float_regs (Suite.program "jack"))

let test_character_pairs () =
  let pair_count p =
    List.fold_left
      (fun acc fn ->
        let _, rpg = build_rpg Machine.middle_pressure fn in
        acc + List.length (Rpg.pairs rpg))
      0 p.Cfg.funcs
  in
  check Alcotest.bool "mpegaudio has paired loads" true
    (pair_count (Suite.program "mpegaudio") > 3)

let prop_random_programs_valid =
  qcheck ~count:50 "random programs validate" seed_gen (fun seed ->
      let p = random_program seed in
      List.for_all
        (fun fn -> Result.is_ok (Cfg.validate fn))
        p.Cfg.funcs)

let prop_random_programs_terminate =
  qcheck ~count:50 "random programs terminate within fuel" seed_gen
    (fun seed ->
      let p = random_program seed in
      let r = Interp.run p in
      r.Interp.stats.Interp.instrs > 0)

let prop_call_graph_is_dag =
  qcheck ~count:25 "the generated call graph is acyclic" seed_gen (fun seed ->
      let p = random_program seed in
      let index = Hashtbl.create 8 in
      List.iteri (fun i fn -> Hashtbl.replace index fn.Cfg.name i) p.Cfg.funcs;
      List.for_all
        (fun fn ->
          Cfg.fold_instrs fn
            (fun acc _ i ->
              acc
              &&
              match i.Instr.kind with
              | Instr.Call { callee; _ } ->
                  Hashtbl.find index callee > Hashtbl.find index fn.Cfg.name
              | _ -> true)
            true)
        p.Cfg.funcs)

let () =
  Alcotest.run "workload"
    [
      ( "rng",
        [
          tc "deterministic" test_rng_deterministic;
          tc "range" test_rng_range;
          tc "split" test_rng_split_independent;
          tc "pick" test_rng_pick;
        ] );
      ( "suite",
        [
          tc "deterministic generation" test_generator_deterministic;
          tc "programs valid" test_suite_programs_valid;
          tc "main signature" test_suite_has_main;
          tc "programs run" test_suite_runs;
          tc "unknown benchmark" test_unknown_benchmark;
          tc "call density character" test_character_call_density;
          tc "float character" test_character_float_share;
          tc "paired-load character" test_character_pairs;
        ] );
      ( "props",
        [
          prop_random_programs_valid;
          prop_random_programs_terminate;
          prop_call_graph_is_dag;
        ] );
    ]
