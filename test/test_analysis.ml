(* Static-analysis framework: registry behavior, one hand-built
   negative per pass pinpointing the injected defect, and a positive
   sweep over the generated suite (all allocators, zero errors). *)

open Helpers

let m8 = Machine.make ~k:8 ()
let m16 = Machine.make ~k:16 ()

let run_pass ?machine ?result (p : Pass.t) fn =
  p.Pass.run (Pass.ctx ?machine ?result fn) fn

let find_diag ?reg ~reason ds =
  List.find_opt
    (fun (d : Diagnostic.t) ->
      d.Diagnostic.reason = reason
      && match reg with None -> true | Some r -> d.Diagnostic.reg = Some r)
    ds

let expect_diag name ?reg ~reason ~severity ~block ~index ds =
  match find_diag ?reg ~reason ds with
  | None ->
      Alcotest.failf "%s: expected %s diagnostic missing:@.%a" name
        (Diagnostic.reason_label reason)
        Diagnostic.report ds
  | Some d ->
      check Alcotest.bool (name ^ " severity") true
        (d.Diagnostic.severity = severity);
      check Alcotest.int (name ^ " block") block d.Diagnostic.block;
      check Alcotest.int (name ^ " index") index d.Diagnostic.index

(* ---- registry ------------------------------------------------------- *)

let test_registry () =
  let names = Pass.names () in
  List.iter
    (fun (p : Pass.t) ->
      check Alcotest.bool ("registered " ^ p.Pass.name) true
        (List.mem p.Pass.name names);
      check Alcotest.bool ("find " ^ p.Pass.name) true
        (Pass.find p.Pass.name <> None))
    Passes.all;
  check Alcotest.bool "at least six passes" true (List.length names >= 6);
  check Alcotest.bool "unknown pass absent" true (Pass.find "nope" = None);
  (* phases partition the registry *)
  let total =
    List.length
      (List.concat_map Pass.for_phase
         [ Pass.Ssa; Pass.Prepared; Pass.Allocated; Pass.Machine ])
  in
  check Alcotest.int "phase partition" (List.length (Pass.all ())) total;
  Alcotest.check_raises "duplicate registration"
    (Invalid_argument "Pass.register: duplicate pass \"lint-ssa\"") (fun () ->
      Pass.register
        (Pass.v ~name:"lint-ssa" ~phase:Pass.Ssa ~doc:"dup" (fun _ _ -> [])))

(* ---- negatives: one injected defect per pass ------------------------ *)

let test_use_before_def () =
  let b = Builder.create ~name:"ubd" ~n_params:0 in
  let x = Builder.reg b Reg.Int_class in
  let y = Builder.binop b Instr.Add x x in
  Builder.ret b (Some y);
  let fn = Builder.finish b in
  expect_diag "use-before-def" ~reg:x ~reason:Diagnostic.Undefined_value
    ~severity:Diagnostic.Error ~block:fn.Cfg.entry ~index:0
    (run_pass Passes.use_before_def fn);
  (* the defined register is not flagged *)
  check Alcotest.bool "no diag for defined reg" true
    (find_diag ~reg:y ~reason:Diagnostic.Undefined_value
       (run_pass Passes.use_before_def fn)
    = None)

let test_dead_store () =
  let b = Builder.create ~name:"ds" ~n_params:0 in
  let dead = Builder.iconst b 42 in
  let live = Builder.iconst b 7 in
  Builder.ret b (Some live);
  let fn = Builder.finish b in
  let ds = run_pass Passes.dead_store fn in
  expect_diag "dead-store" ~reg:dead ~reason:Diagnostic.Dead_code
    ~severity:Diagnostic.Warning ~block:fn.Cfg.entry ~index:0 ds;
  check Alcotest.bool "live def not flagged" true
    (find_diag ~reg:live ~reason:Diagnostic.Dead_code ds = None)

let test_unreachable_block () =
  let b = Builder.create ~name:"unreach" ~n_params:0 in
  let r = Builder.iconst b 1 in
  Builder.ret b (Some r);
  let orphan = Builder.new_block b in
  Builder.switch_to b orphan;
  Builder.ret b None;
  let fn = Builder.finish b in
  expect_diag "unreachable-block" ~reason:Diagnostic.Dead_code
    ~severity:Diagnostic.Warning ~block:orphan ~index:(-1)
    (run_pass Passes.unreachable_block fn);
  (* a fully reachable function is clean *)
  let clean, _, _, _, _ = straightline () in
  check Alcotest.int "straightline clean" 0
    (List.length (run_pass Passes.unreachable_block clean))

let test_ssa_pressure () =
  let b = Builder.create ~name:"pressure" ~n_params:0 in
  let rs = List.init 10 (fun i -> Builder.iconst b i) in
  let sum =
    List.fold_left
      (fun acc r -> Builder.binop b Instr.Add acc r)
      (List.hd rs) (List.tl rs)
  in
  Builder.ret b (Some sum);
  let fn = Builder.finish b in
  (* ten simultaneously live constants: over k=8, under k=16 *)
  expect_diag "ssa-pressure" ~reason:Diagnostic.Pressure
    ~severity:Diagnostic.Warning ~block:(-1) ~index:(-1)
    (run_pass ~machine:m8 Passes.ssa_pressure fn);
  check Alcotest.int "certified at k=16" 0
    (List.length (run_pass ~machine:m16 Passes.ssa_pressure fn))

let test_maxlive () =
  let b = Builder.create ~name:"ml" ~n_params:0 in
  let x0 = Builder.iconst b 1 in
  let x1 = Builder.iconst b 2 in
  let y = Builder.binop b Instr.Add x0 x1 in
  Builder.ret b (Some y);
  let fn = Builder.finish b in
  let ml = Maxlive.compute fn in
  check Alcotest.int "max int" 2 ml.Maxlive.max_int;
  check Alcotest.int "max float" 0 ml.Maxlive.max_float;
  check Alcotest.bool "certified k=2" true (Maxlive.certified ~k:2 ml);
  check Alcotest.bool "not certified k=1" false (Maxlive.certified ~k:1 ml)

(* A copy between live ranges that interfere: webs A (two defs of [a])
   and B (two defs of [bb]) meet at the join, and the else-branch
   redefines [a] while [bb] is live, so the then-branch copy's coalesce
   edge can never be honored. *)
let test_rpg_consistency () =
  let b = Builder.create ~name:"rpgbad" ~n_params:0 in
  let a = Builder.iconst b 1 in
  let cond = Builder.iconst b 1 in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  let l3 = Builder.new_block b in
  Builder.branch b cond ~ifso:l1 ~ifnot:l2;
  Builder.switch_to b l1;
  let bb = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:bb ~src:a;
  Builder.jump b l3;
  Builder.switch_to b l2;
  Builder.emit b (Instr.Const { dst = bb; value = 7L });
  Builder.emit b (Instr.Const { dst = a; value = 2L });
  Builder.jump b l3;
  Builder.switch_to b l3;
  let s = Builder.binop b Instr.Add a bb in
  Builder.ret b (Some s);
  let fn = Builder.finish b in
  expect_diag "rpg interfering copy" ~reg:bb ~reason:Diagnostic.Bad_preference
    ~severity:Diagnostic.Warning ~block:l1 ~index:0
    (run_pass ~machine:m8 Passes.rpg_consistency fn)

let test_spill_slots () =
  let b = Builder.create ~name:"slots" ~n_params:0 in
  let x = Builder.iconst b 7 in
  Builder.emit b (Instr.Spill { src = x; slot = 0 });
  let y = Builder.reg b Reg.Int_class in
  Builder.emit b (Instr.Reload { dst = y; slot = 5 });
  Builder.ret b (Some y);
  let fn = Builder.finish b in
  let res =
    {
      Alloc_common.func = fn;
      alloc = Reg.Tbl.create 4;
      rounds = 1;
      spill_instrs = 2;
      (* slot 0 double-booked; body slot 5 leaked (and never stored) *)
      spill_slots = [ (x, 0); (y, 0) ];
    }
  in
  let ds = run_pass ~machine:m8 ~result:res Passes.spill_slots fn in
  let errs = Diagnostic.errors ds in
  check Alcotest.bool "double-booked slot" true
    (List.exists
       (fun (d : Diagnostic.t) ->
         d.Diagnostic.reason = Diagnostic.Slot_mismatch
         && d.Diagnostic.block = -1)
       errs);
  (* the leaked slot and the store-less reload pinpoint the reload *)
  check Alcotest.bool "leak pinpoints the reload" true
    (List.exists
       (fun (d : Diagnostic.t) ->
         d.Diagnostic.reg = Some y
         && d.Diagnostic.block = fn.Cfg.entry
         && d.Diagnostic.index = 2)
       errs);
  check Alcotest.bool "at least three errors" true (List.length errs >= 3);
  (* a result whose metadata matches its traffic is clean *)
  let res_ok = { res with Alloc_common.spill_slots = [ (x, 0) ] } in
  let clean =
    Diagnostic.errors (run_pass ~machine:m8 ~result:res_ok Passes.spill_slots fn)
  in
  (* the reload of the never-stored slot 5 is still leaked *)
  check Alcotest.int "only slot-5 errors remain" 2 (List.length clean)

(* ---- phase contracts in the pipeline -------------------------------- *)

let test_check_phases_accepts_suite () =
  let m = Machine.make ~k:16 () in
  let p = Pipeline.prepare ~check_phases:true m (Suite.program "jess") in
  let a =
    Pipeline.allocate_program ~check_phases:true Pipeline.pdgc_full m p
  in
  check Alcotest.bool "allocated" true (a.Pipeline.results <> [])

let test_check_phases_rejects_bad_input () =
  let b = Builder.create ~name:"bad" ~n_params:0 in
  let x = Builder.reg b Reg.Int_class in
  let y = Builder.binop b Instr.Add x x in
  Builder.ret b (Some y);
  let fn = Builder.finish b in
  let p = { Cfg.funcs = [ fn ]; main = "bad" } in
  let m = Machine.make ~k:16 () in
  match Pipeline.allocate_program ~check_phases:true Pipeline.chaitin_base m p with
  | _ -> Alcotest.fail "use-before-def input must violate the phase contract"
  | exception Alloc_common.Failed msg ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      check Alcotest.bool "mentions the phase contract" true
        (contains msg "phase contract")

(* ---- determinism ---------------------------------------------------- *)

let test_report_deterministic () =
  let d ~block ~index msg =
    Diagnostic.v ~block ~index ~func:"f" Diagnostic.Structure msg
  in
  let a = d ~block:2 ~index:1 "later" in
  let b = d ~block:0 ~index:3 "earlier" in
  let c = d ~block:0 ~index:0 "first" in
  let render ds = Format.asprintf "%a" Verify.report ds in
  check Alcotest.string "order independent" (render [ a; b; c; b ])
    (render [ c; b; a ]);
  let lines s = List.length (String.split_on_char '\n' (String.trim s)) in
  check Alcotest.int "duplicates dropped" 3 (lines (render [ a; b; c; b; b ]))

let test_driver_deterministic () =
  let m = Machine.make ~k:16 () in
  let algos = [ Pipeline.chaitin_base; Pipeline.pdgc_full ] in
  let r1 = Analyze_driver.run ~jobs:1 ~algos m (Suite.program "jess") in
  let r4 = Analyze_driver.run ~jobs:4 ~algos m (Suite.program "jess") in
  check Alcotest.bool "jobs=1 equals jobs=4" true (r1 = r4)

(* ---- positive sweep ------------------------------------------------- *)

let sweep name k =
  let m = Machine.make ~k () in
  let r = Analyze_driver.run m (Suite.program name) in
  check Alcotest.int (name ^ " zero analysis errors") 0
    (Analyze_driver.errors r);
  (* every registered pass produced at least one entry *)
  List.iter
    (fun (p : Pass.t) ->
      check Alcotest.bool (name ^ " ran " ^ p.Pass.name) true
        (List.exists
           (fun (e : Analyze_driver.entry) -> e.Analyze_driver.pass = p.Pass.name)
           r.Analyze_driver.entries))
    (Pass.all ())

(* How many of a suite program's functions MAXLIVE certifies on SSA
   form, out of how many, at the register files of Figs. 9–11. *)
let test_certified_counts () =
  List.iter
    (fun (name, k, certified, funcs) ->
      let ssa = List.map Ssa_construct.run (Suite.program name).Cfg.funcs in
      let stats = List.map (fun f -> Maxlive.compute f) ssa in
      check Alcotest.int (name ^ " functions") funcs (List.length stats);
      check Alcotest.int (name ^ " certified") certified
        (List.length (List.filter (Maxlive.certified ~k) stats)))
    [ ("jess", 16, 7, 14); ("mtrt", 24, 8, 10); ("jack", 24, 13, 13) ]

let test_sweep_jess () = sweep "jess" 16
let test_sweep_mtrt () = sweep "mtrt" 24

let () =
  Alcotest.run "analysis"
    [
      ("registry", [ tc "register/find/phases" test_registry ]);
      ( "negative",
        [
          tc "use-before-def" test_use_before_def;
          tc "dead-store" test_dead_store;
          tc "unreachable-block" test_unreachable_block;
          tc "ssa-pressure" test_ssa_pressure;
          tc "rpg-consistency" test_rpg_consistency;
          tc "spill-slots" test_spill_slots;
        ] );
      ( "pipeline",
        [
          tc "check_phases accepts suite" test_check_phases_accepts_suite;
          tc "check_phases rejects bad input" test_check_phases_rejects_bad_input;
        ] );
      ( "determinism",
        [
          tc "verify report" test_report_deterministic;
          tc "analyze driver" test_driver_deterministic;
        ] );
      ( "sweep",
        [
          tc "maxlive" test_maxlive;
          tc "certified counts" test_certified_counts;
          tc "jess k=16" test_sweep_jess;
          tc "mtrt k=24" test_sweep_mtrt;
        ] );
    ]
