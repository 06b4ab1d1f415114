(* Parallel allocation engine: a worker pool must be observationally
   identical to the sequential path — same allocations, same metrics,
   same first failure — for every registered allocator. *)

open Helpers

(* Whole-program fingerprint: the printed machine code pins every label,
   instruction and operand, so equality here is bit-for-bit. *)
let fingerprint (a : Pipeline.allocated) =
  ( Format.asprintf "%a" Cfg.pp_program a.Pipeline.program,
    a.Pipeline.moves_eliminated,
    a.Pipeline.moves_kept,
    a.Pipeline.spill_instrs,
    a.Pipeline.rounds_max )

let test_engine_map_order () =
  let xs = List.init 37 (fun i -> i) in
  let f x = (x * x) + 1 in
  check
    Alcotest.(list int)
    "Engine.map preserves input order at any jobs"
    (Engine.map ~jobs:1 f xs)
    (Engine.map ~jobs:4 f xs)

let test_engine_map_empty () =
  check Alcotest.(list int) "empty input" [] (Engine.map ~jobs:4 Fun.id [])

(* One persistent pool across batches, the daemon's usage: a batch that
   raises must surface the input-order first failure and leave the pool
   able to run the next batch. *)
let test_pool_batches () =
  let pool = Engine.Pool.create ~jobs:4 in
  let xs = List.init 41 (fun i -> i) in
  let sq x = x * x in
  check
    Alcotest.(list int)
    "first batch in input order" (List.map sq xs) (Engine.Pool.map pool sq xs);
  let failing x =
    if x = 7 || x = 23 || x = 40 then failwith (string_of_int x) else sq x
  in
  (match Engine.Pool.map pool failing xs with
  | _ -> Alcotest.fail "failing batch did not fail"
  | exception Failure msg ->
      check Alcotest.string "first failure in input order" "7" msg);
  check
    Alcotest.(list int)
    "batch after a failure" (List.map succ xs)
    (Engine.Pool.map pool succ xs);
  Engine.Pool.shutdown pool;
  (* Already shut down: must return without joining anything again. *)
  Engine.Pool.shutdown pool

(* An allocator that gives up must give up identically in parallel, so
   the comparison is over outcomes, not just successful allocations. *)
let outcome ~jobs algo m p =
  match Pipeline.allocate_program ~jobs algo m p with
  | a -> Ok (fingerprint a)
  | exception Alloc_common.Failed msg -> Error msg

let prop_parallel_matches_sequential algo =
  qcheck ~count:6
    (Printf.sprintf "%s: jobs=4 equals jobs=1" algo.Allocator.name)
    seed_gen
    (fun seed ->
      let m = Machine.middle_pressure in
      let p = prepared_random_program ~m seed in
      outcome ~jobs:1 algo m p = outcome ~jobs:4 algo m p)

let suite_parallel name algo =
  let m = Machine.middle_pressure in
  let p = Pipeline.prepare m (Suite.program name) in
  let seq = Pipeline.allocate_program ~jobs:1 algo m p in
  let par = Pipeline.allocate_program ~jobs:4 algo m p in
  check Alcotest.bool
    (Printf.sprintf "%s on %s: pool output is bit-for-bit sequential"
       algo.Allocator.name name)
    true
    (fingerprint seq = fingerprint par)

let test_suite_chaitin () = suite_parallel "jess" Pipeline.chaitin_base
let test_suite_pdgc () = suite_parallel "jess" Pipeline.pdgc_full

let test_failure_order () =
  (* When several jobs raise, the engine must surface the failure the
     sequential path would have hit first — the earliest in input
     order — regardless of worker scheduling. *)
  let m = Machine.middle_pressure in
  let p = prepared_random_program ~m 77 in
  check Alcotest.bool "workload has several functions" true
    (List.length p.Cfg.funcs > 1);
  let failing =
    Allocator.v ~name:"failing" ~label:"failing" (fun _ f ->
        raise (Alloc_common.Failed ("boom: " ^ f.Cfg.name)))
  in
  let run jobs =
    match Pipeline.allocate_program ~jobs failing m p with
    | _ -> Alcotest.fail "failing allocator did not fail"
    | exception Alloc_common.Failed msg -> msg
  in
  check Alcotest.string "same first failure at any jobs" (run 1) (run 4)

let () =
  Alcotest.run "parallel"
    [
      ( "engine",
        [
          tc "map preserves order" test_engine_map_order;
          tc "map on empty input" test_engine_map_empty;
          tc "pool survives a failing batch" test_pool_batches;
          tc "first failure is input-ordered" test_failure_order;
        ] );
      ( "determinism",
        List.map prop_parallel_matches_sequential (Allocator.all ()) );
      ( "suite",
        [
          tc "chaitin on jess" test_suite_chaitin;
          tc "pdgc on jess" test_suite_pdgc;
        ] );
    ]
