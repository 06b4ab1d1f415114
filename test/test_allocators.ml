(* Cross-cutting allocator tests: every allocator must produce valid,
   semantics-preserving, deterministic allocations. *)

open Helpers

let test_valid_on_fig7 () =
  (* The Fig. 7 function at k = 4 (its k = 3 machine is too tight for
     the preference-blind baselines' save conventions). *)
  let m = Machine.make ~k:4 () in
  let fn = Pipeline.prepare_func m (fst (Fig7.build ())) in
  List.iter
    (fun algo ->
      let res = Allocator.exec algo m fn in
      assert_valid_allocation m res)
    paper_algos

let test_spill_counts_ordering () =
  (* At high pressure, the improved algorithms spill no more than the
     Chaitin base on the javac benchmark (the paper's headline spill
     claim). *)
  let m = Machine.make ~k:16 () in
  let p = Pipeline.prepare m (Suite.program "javac") in
  let spills algo =
    (Pipeline.allocate_program algo m p).Pipeline.spill_instrs
  in
  let base = spills Pipeline.chaitin_base in
  List.iter
    (fun algo ->
      let s = spills algo in
      check Alcotest.bool
        (Printf.sprintf "%s spills (%d) <= chaitin (%d)" algo.Allocator.name s
           base)
        true (s <= base))
    [ Pipeline.briggs_aggressive; Pipeline.optimistic; Pipeline.iterated;
      Pipeline.pdgc_full ]

let test_coalescers_eliminate_most_moves () =
  let m = Machine.middle_pressure in
  let p = Pipeline.prepare m (Suite.program "jess") in
  List.iter
    (fun algo ->
      let a = Pipeline.allocate_program algo m p in
      let total = a.Pipeline.moves_eliminated + a.Pipeline.moves_kept in
      let ratio = float_of_int a.Pipeline.moves_eliminated /. float_of_int total in
      check Alcotest.bool
        (Printf.sprintf "%s eliminates > 50%% of moves (%.2f)"
           algo.Allocator.name ratio)
        true (ratio > 0.5))
    paper_algos

let per_algo_semantic_prop algo =
  qcheck ~count:20
    (Printf.sprintf "%s preserves semantics" algo.Allocator.name)
    seed_gen
    (fun seed ->
      assert_semantics_preserved algo.Allocator.name algo seed;
      true)

let per_algo_validity_prop algo =
  qcheck ~count:20
    (Printf.sprintf "%s produces interference-free assignments"
       algo.Allocator.name)
    seed_gen
    (fun seed ->
      let m = Machine.make ~k:12 () in
      let p = prepared_random_program ~m seed in
      List.for_all
        (fun fn ->
          let res = Allocator.exec algo m fn in
          assert_valid_allocation m res;
          true)
        p.Cfg.funcs)

let prop_determinism algo =
  qcheck ~count:8
    (Printf.sprintf "%s is deterministic" algo.Allocator.name)
    seed_gen
    (fun seed ->
      let m = Machine.middle_pressure in
      let p = prepared_random_program ~m seed in
      let run () =
        let a = Pipeline.allocate_program algo m p in
        ( a.Pipeline.moves_eliminated,
          a.Pipeline.spill_instrs,
          List.map Cfg.body_digest a.Pipeline.program.Cfg.funcs )
      in
      run () = run ())

let test_low_k_stress () =
  (* All allocators must survive a tiny register file (k = 8 is the
     smallest file whose calling convention fits the generator's
     three-argument functions). *)
  let m = Machine.make ~k:8 () in
  let p = prepared_random_program ~m 4242 in
  let before = Interp.run p in
  List.iter
    (fun algo ->
      let a = Pipeline.allocate_program algo m p in
      let after = Interp.run ~machine:m a.Pipeline.program in
      check Alcotest.bool (algo.Allocator.name ^ " semantics at k=8") true
        (Interp.equal_value before.Interp.value after.Interp.value))
    paper_algos

let test_find_algo () =
  (match Allocator.find "pdgc" with
  | Some a -> check Alcotest.string "lookup" "pdgc" a.Allocator.name
  | None -> Alcotest.fail "pdgc not registered");
  check Alcotest.bool "unknown key is a clean None" true
    (Allocator.find "nope" = None)

let test_round_budget () =
  (* A step that asks for another round without spilling anything never
     converges; the driver must give up after its 64-round budget. *)
  let fn, _ = Fig7.build () in
  let rounds = ref 0 in
  let stuck _ ~no_spill:_ =
    incr rounds;
    Alloc_common.Spill Reg.Set.empty
  in
  Alcotest.check_raises "budget exhausted"
    (Alloc_common.Failed "stuck: too many rounds") (fun () ->
      ignore (Alloc_common.drive ~name:"stuck" fn stuck));
  check Alcotest.int "every budgeted round ran" 64 !rounds

let () =
  Alcotest.run "allocators"
    [
      ( "unit",
        [
          tc "valid on fig7" test_valid_on_fig7;
          tc "spill ordering vs chaitin" test_spill_counts_ordering;
          tc "move elimination" test_coalescers_eliminate_most_moves;
          tc "low-k stress" test_low_k_stress;
          tc "find_algo" test_find_algo;
          tc "round budget" test_round_budget;
        ] );
      ("semantics", List.map per_algo_semantic_prop paper_algos);
      ("validity", List.map per_algo_validity_prop paper_algos);
      ("determinism", List.map prop_determinism paper_algos);
    ]
