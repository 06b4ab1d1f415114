(* Spill-cost model and spill-code insertion tests. *)

open Helpers

(* Appendix numbers on the Fig. 7 example: Mem_Cost(v3) = Spill_Cost(30)
   + Op_Cost(20) = 50. *)
let test_fig7_v3_costs () =
  let fn, regs = Fig7.build () in
  let webs = Webs.run fn in
  let fn' = webs.Webs.func in
  let web_of orig =
    Reg.Tbl.fold
      (fun w o acc -> if Reg.equal o orig then w else acc)
      webs.Webs.origin orig
  in
  let costs = Spill_cost.compute fn' in
  let v3 = web_of regs.Fig7.v3 in
  let info = Spill_cost.info costs v3 in
  (* v3: one def (the copy, freq 10, store cost 1) and one use (the copy
     to arg0, freq 10, load cost 2). *)
  check Alcotest.int "Spill_Cost(v3)" 30 info.Spill_cost.spill_cost;
  check Alcotest.int "Op_Cost(v3)" 20 info.Spill_cost.op_cost;
  check Alcotest.int "Mem_Cost(v3)" 50 info.Spill_cost.mem_cost;
  check Alcotest.int "defs" 1 info.Spill_cost.n_defs;
  check Alcotest.int "uses" 1 info.Spill_cost.n_uses

let test_fig7_v4_costs () =
  let fn, regs = Fig7.build () in
  let webs = Webs.run fn in
  let fn' = webs.Webs.func in
  let web_of orig =
    Reg.Tbl.fold
      (fun w o acc -> if Reg.equal o orig then w else acc)
      webs.Webs.origin orig
  in
  let costs = Spill_cost.compute fn' in
  let v4 = web_of regs.Fig7.v4 in
  let info = Spill_cost.info costs v4 in
  (* v4: def at the add (freq 10, store 1 = 10), use at v0 = v4+1
     (freq 10, load 2 = 20). *)
  check Alcotest.int "Spill_Cost(v4)" 30 info.Spill_cost.spill_cost

let test_memory_op_cost_weighting () =
  (* A load-using register pays Inst_Cost 2 at that site. *)
  let b = Builder.create ~name:"m" ~n_params:1 in
  let base = Builder.reg b Reg.Int_class in
  Builder.param b base 0;
  let x = Builder.load b ~base ~offset:0 () in
  Builder.ret b (Some x);
  let fn = Builder.finish b in
  let costs = Spill_cost.compute fn in
  let info = Spill_cost.info costs base in
  (* base: def via param (op 1) + use at load (memory op 2), freq 1. *)
  check Alcotest.int "op cost" 3 info.Spill_cost.op_cost

let test_zero_for_unknown () =
  let fn, _, _, _, _ = straightline () in
  let costs = Spill_cost.compute fn in
  check Alcotest.int "unknown reg" 0
    (Spill_cost.spill_cost costs (Reg.first_virtual + 999))

let test_chaitin_metric_protects_temps () =
  let fn, a, _, _, _ = straightline () in
  let costs = Spill_cost.compute fn in
  let live = Liveness.compute fn in
  let g = Igraph.build fn live in
  let metric = Spill_cost.chaitin_metric costs g ~no_spill:(Reg.equal a) in
  check Alcotest.bool "protected is infinite" true (metric a = infinity);
  check Alcotest.bool "others finite" true
    (metric (a + 1) < infinity)

(* Merged spill costs: the one-pass table against the per-representative
   scan, on every register of every function, after aggressive and after
   conservative coalescing. *)
let merged_costs_agree ~k (f : Cfg.func) =
  let a = Alloc_common.analyze (Webs.run (Cfg.clone f)).Webs.func in
  List.for_all
    (fun coalesce ->
      let g = Igraph.copy a.Alloc_common.graph in
      coalesce g;
      let costs = a.Alloc_common.costs in
      let merged = Spill_cost.merged_spill_costs costs g in
      let oracle = Ref_merged_cost.cost costs g a.Alloc_common.fn in
      Reg.Set.for_all
        (fun r -> merged r = oracle r)
        (Cfg.all_vregs a.Alloc_common.fn))
    [
      (fun g -> ignore (Coalesce.aggressive g));
      (fun g -> ignore (Coalesce.conservative ~k g));
    ]

let test_merged_costs_suite () =
  let m = Machine.make ~k:8 () in
  List.iter
    (fun (name, p) ->
      let p = Pipeline.prepare m p in
      List.iter
        (fun (f : Cfg.func) ->
          if not (merged_costs_agree ~k:8 f) then
            Alcotest.failf "%s/%s: merged costs differ from the scan" name
              f.Cfg.name)
        p.Cfg.funcs)
    (Suite.all ())

let prop_merged_costs_random =
  qcheck ~count:25 "merged costs = per-representative scan" seed_gen
    (fun seed ->
      let m = Machine.middle_pressure in
      List.for_all
        (merged_costs_agree ~k:m.Machine.k)
        (prepared_random_program ~m seed).Cfg.funcs)

(* Spill-victim choice ---------------------------------------------------- *)

(* a = p0; c = p1; s = a + c; t = s; r = t * a; ret r.  Aggressive
   coalescing merges [t] into [s]'s node.  Spill costs (store 1 per
   def, load 2 per use): a 5, c 3, s 3, t 3, r 3; degrees: a 2 (c and
   the s/t node), c 1, s/t 1, r 0 (counted as 1).  Metrics: a 2.5,
   c 3, r 3, and 6 for the merged s/t node — 3 if only [s] counted. *)
let victim_fixture () =
  let b = Builder.create ~name:"victims" ~n_params:2 in
  let a = Builder.reg b Reg.Int_class in
  let c = Builder.reg b Reg.Int_class in
  Builder.param b a 0;
  Builder.param b c 1;
  let s = Builder.binop b Instr.Add a c in
  let t = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:t ~src:s;
  let r = Builder.binop b Instr.Mul t a in
  Builder.ret b (Some r);
  let an = Alloc_common.analyze (Builder.finish b) in
  let g = an.Alloc_common.graph in
  ignore (Coalesce.aggressive g);
  check reg_testable "t merged into s's node" (Igraph.alias g s)
    (Igraph.alias g t);
  (an.Alloc_common.costs, g, a, c, Igraph.alias g s, r)

let test_victim_lowest_metric () =
  let costs, g, a, c, st, _ = victim_fixture () in
  let choose = Alloc_common.choose_victim costs g ~no_spill:(fun _ -> false) in
  check reg_testable "lowest cost/degree" a (choose [ c; st; a ]);
  (* Unmerged, [st] would tie [c] and win as the first candidate. *)
  check reg_testable "merged cost counts every member" c (choose [ st; c ])

let test_victim_tie_first () =
  let costs, g, _, c, _, r = victim_fixture () in
  let choose = Alloc_common.choose_victim costs g ~no_spill:(fun _ -> false) in
  check reg_testable "first of c, r" c (choose [ c; r ]);
  check reg_testable "first of r, c" r (choose [ r; c ])

let test_victim_temps () =
  let costs, g, a, c, _, r = victim_fixture () in
  let choose no_spill = Alloc_common.choose_victim costs g ~no_spill in
  check reg_testable "a real candidate beats a temporary" c
    (choose (Reg.equal a) [ a; c ]);
  check reg_testable "only temporaries: highest degree" a
    (choose (fun _ -> true) [ c; a; r ])

(* Spill insertion -------------------------------------------------------- *)

let test_insert_rewrites_def_and_use () =
  let fn, a, _, _, _ = straightline () in
  let r = Spill_insert.insert fn (Reg.Set.singleton a) in
  let fn' = r.Spill_insert.func in
  check Alcotest.bool "valid" true (Result.is_ok (Cfg.validate fn'));
  (* a had 1 def and 2 uses: 1 store + 2 reloads. *)
  check Alcotest.int "spill instrs" 3 r.Spill_insert.n_spill_instrs;
  (* a no longer occurs. *)
  check Alcotest.bool "a gone" false (Reg.Set.mem a (Cfg.all_vregs fn'))

let test_insert_move_dst_becomes_store () =
  (* x = y with x spilled: a single store, no temporary move. *)
  let b = Builder.create ~name:"mv" ~n_params:1 in
  let y = Builder.reg b Reg.Int_class in
  Builder.param b y 0;
  let x = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:x ~src:y;
  Builder.ret b (Some y);
  let fn = Builder.finish b in
  let r = Spill_insert.insert fn (Reg.Set.singleton x) in
  let moves =
    Cfg.fold_instrs r.Spill_insert.func
      (fun acc _ i -> match i.Instr.kind with Instr.Move _ -> acc + 1 | _ -> acc)
      0
  in
  check Alcotest.int "no move left" 0 moves;
  check Alcotest.int "one store" 1 r.Spill_insert.n_spill_instrs

let test_insert_move_src_becomes_reload () =
  let b = Builder.create ~name:"mv2" ~n_params:1 in
  let y = Builder.reg b Reg.Int_class in
  Builder.param b y 0;
  let x = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:x ~src:y;
  Builder.ret b (Some x);
  let fn = Builder.finish b in
  let r = Spill_insert.insert fn (Reg.Set.singleton y) in
  (* y's def (param move target!) is a Move dst, its use a Move src. *)
  check Alcotest.bool "valid" true
    (Result.is_ok (Cfg.validate r.Spill_insert.func))

let test_watermark_marks_temps () =
  let fn, a, _, _, _ = straightline () in
  let before = Cfg.all_vregs fn in
  let r = Spill_insert.insert fn (Reg.Set.singleton a) in
  let fresh =
    Reg.Set.diff (Cfg.all_vregs r.Spill_insert.func) before
  in
  Reg.Set.iter
    (fun t ->
      check Alcotest.bool
        (Printf.sprintf "%s above watermark" (Reg.to_string t))
        true
        (t >= r.Spill_insert.temp_watermark))
    fresh

let test_slots_distinct () =
  let fn, a, b, _, _ = straightline () in
  let r = Spill_insert.insert fn (Reg.Set.of_list [ a; b ]) in
  let slots =
    Cfg.fold_instrs r.Spill_insert.func
      (fun acc _ i ->
        match i.Instr.kind with
        | Instr.Spill { slot; _ } | Instr.Reload { slot; _ } -> slot :: acc
        | _ -> acc)
      []
    |> List.sort_uniq compare
  in
  check Alcotest.int "two distinct slots" 2 (List.length slots);
  check Alcotest.int "next_slot advances" 2
    (Spill_insert.next_slot r.Spill_insert.func)

let test_rejects_phys () =
  let fn, _, _, _, _ = straightline () in
  Alcotest.check_raises "physical spill rejected"
    (Invalid_argument "Spill_insert.insert: physical register") (fun () ->
      ignore (Spill_insert.insert fn (Reg.Set.singleton (Reg.phys Reg.Int_class 0))))

let test_rematerialization () =
  (* A spilled single-def constant produces no frame traffic: its uses
     re-issue the constant. *)
  let b = Builder.create ~name:"r" ~n_params:0 in
  let c = Builder.iconst b 99 in
  let d = Builder.binop b Instr.Add c c in
  let e = Builder.binop b Instr.Mul d c in
  Builder.ret b (Some e);
  let fn = Builder.finish b in
  let before = Interp.run { Cfg.funcs = [ fn ]; main = "r" } in
  let r = Spill_insert.insert ~rematerialize:true fn (Reg.Set.singleton c) in
  check Alcotest.int "no spill instructions" 0 r.Spill_insert.n_spill_instrs;
  check Alcotest.bool "uses rematerialized" true
    (r.Spill_insert.n_rematerialized >= 2);
  Cfg.iter_instrs r.Spill_insert.func (fun _ i ->
      match i.Instr.kind with
      | Instr.Spill _ | Instr.Reload _ -> Alcotest.fail "frame traffic"
      | _ -> ());
  let after = Interp.run { Cfg.funcs = [ r.Spill_insert.func ]; main = "r" } in
  check Alcotest.bool "semantics" true
    (Interp.equal_value before.Interp.value after.Interp.value)

let test_remat_excludes_multi_def () =
  (* A register redefined after its constant definition must NOT be
     rematerialized. *)
  let b = Builder.create ~name:"r" ~n_params:0 in
  let c = Builder.iconst b 5 in
  let one = Builder.iconst b 1 in
  Builder.emit b (Instr.Binop { op = Instr.Add; dst = c; src1 = c; src2 = one });
  Builder.ret b (Some c);
  let fn = Builder.finish b in
  let before = Interp.run { Cfg.funcs = [ fn ]; main = "r" } in
  let r = Spill_insert.insert ~rematerialize:true fn (Reg.Set.singleton c) in
  check Alcotest.bool "uses frame slots" true (r.Spill_insert.n_spill_instrs > 0);
  let after = Interp.run { Cfg.funcs = [ r.Spill_insert.func ]; main = "r" } in
  check Alcotest.bool "semantics" true
    (Interp.equal_value before.Interp.value after.Interp.value)

let prop_spilling_preserves_semantics =
  qcheck ~count:40 "spilling random registers preserves results" seed_gen
    (fun seed ->
      let p = random_program seed in
      let before = Interp.run p in
      let rng = Rng.create (seed + 1) in
      let funcs =
        List.map
          (fun f ->
            let f = Cfg.clone f in
            let vregs = Reg.Set.elements (Cfg.all_vregs f) in
            let victims =
              List.filter (fun _ -> Rng.bool rng 0.3) vregs |> Reg.Set.of_list
            in
            let rematerialize = Rng.bool rng 0.5 in
            (Spill_insert.insert ~rematerialize f victims).Spill_insert.func)
          p.Cfg.funcs
      in
      let after = Interp.run { p with Cfg.funcs } in
      Interp.equal_value before.Interp.value after.Interp.value)

let prop_spilled_regs_vanish =
  qcheck ~count:30 "spilled registers no longer occur" seed_gen (fun seed ->
      let p = random_program seed in
      List.for_all
        (fun f ->
          let f = Cfg.clone f in
          let vregs = Cfg.all_vregs f in
          match Reg.Set.choose_opt vregs with
          | None -> true
          | Some victim ->
              let r = Spill_insert.insert f (Reg.Set.singleton victim) in
              not (Reg.Set.mem victim (Cfg.all_vregs r.Spill_insert.func)))
        p.Cfg.funcs)

let () =
  Alcotest.run "spill"
    [
      ( "costs",
        [
          tc "fig7 v3 appendix numbers" test_fig7_v3_costs;
          tc "fig7 v4 spill cost" test_fig7_v4_costs;
          tc "memory ops weigh 2" test_memory_op_cost_weighting;
          tc "unknown registers cost zero" test_zero_for_unknown;
          tc "metric protects temporaries" test_chaitin_metric_protects_temps;
        ] );
      ( "merged",
        [
          tc "suite programs at k=8" test_merged_costs_suite;
          prop_merged_costs_random;
        ] );
      ( "victim",
        [
          tc "lowest merged cost/degree wins" test_victim_lowest_metric;
          tc "ties go to the first candidate" test_victim_tie_first;
          tc "temporaries last, then highest degree" test_victim_temps;
        ] );
      ( "insertion",
        [
          tc "def and use rewritten" test_insert_rewrites_def_and_use;
          tc "spilled move dst becomes store" test_insert_move_dst_becomes_store;
          tc "spilled move src becomes reload" test_insert_move_src_becomes_reload;
          tc "watermark marks temps" test_watermark_marks_temps;
          tc "slots distinct" test_slots_distinct;
          tc "rejects physical registers" test_rejects_phys;
          tc "rematerializes constants" test_rematerialization;
          tc "no remat for multi-def" test_remat_excludes_multi_def;
        ] );
      ( "props",
        [ prop_spilling_preserves_semantics; prop_spilled_regs_vanish ] );
    ]
