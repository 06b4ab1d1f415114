(* Targeted tests for the individual baseline allocators and the shared
   select phase. *)

open Helpers

(* Color_select ----------------------------------------------------------- *)

let select_for fn ~order ~biased ~k =
  let live = Liveness.compute fn in
  let g = Igraph.build fn live in
  let simp =
    Simplify.run Simplify.Optimistic ~k g ~spill_choice:List.hd ()
  in
  let m = Machine.make ~k () in
  (g, Color_select.run m g ~stack:simp.Simplify.stack ~order ~biased)

let test_select_nonvolatile_first () =
  let fn, _, _, _, _ = straightline () in
  let m = Machine.make ~k:8 () in
  let g, sel =
    select_for fn ~order:Color_select.Nonvolatile_first ~biased:false ~k:8
  in
  check Alcotest.bool "no failures" true (Reg.Set.is_empty sel.Color_select.failed);
  (* Everything fits in non-volatile registers. *)
  List.iter
    (fun r ->
      match Color_select.color_of sel g r with
      | Some c ->
          check Alcotest.bool
            (Reg.to_string r ^ " non-volatile")
            false (Machine.is_volatile m c)
      | None -> Alcotest.fail "uncolored")
    (Igraph.vnodes g)

let test_select_volatile_first () =
  let fn, _, _, _, _ = straightline () in
  let m = Machine.make ~k:8 () in
  let g, sel =
    select_for fn ~order:Color_select.Volatile_first ~biased:false ~k:8
  in
  List.iter
    (fun r ->
      match Color_select.color_of sel g r with
      | Some c ->
          check Alcotest.bool
            (Reg.to_string r ^ " volatile")
            true (Machine.is_volatile m c)
      | None -> Alcotest.fail "uncolored")
    (Igraph.vnodes g)

let test_select_biased_takes_partner_color () =
  (* x = const; y = x (x dead): biased coloring gives y x's register. *)
  let b = Builder.create ~name:"b" ~n_params:0 in
  let x = Builder.iconst b 5 in
  let blocker = Builder.iconst b 6 in
  let y = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:y ~src:x;
  let s = Builder.binop b Instr.Add y blocker in
  Builder.ret b (Some s);
  let fn = Builder.finish b in
  let g, sel = select_for fn ~order:Color_select.Index_order ~biased:true ~k:8 in
  let cx = Color_select.color_of sel g x and cy = Color_select.color_of sel g y in
  check (Alcotest.option reg_testable) "same color" cx cy

let test_select_avail_excludes_neighbors () =
  let fn, a, b, _, _ = straightline () in
  let g, sel = select_for fn ~order:Color_select.Index_order ~biased:false ~k:8 in
  check Alcotest.bool "a and b interfere" true (Igraph.interferes g a b);
  let color r =
    match Color_select.color_of sel g r with
    | Some c -> c
    | None -> Alcotest.fail (Reg.to_string r ^ " uncolored")
  in
  let cb = color b in
  Igraph.fold_adj g b ~init:() ~f:(fun () n ->
      check Alcotest.bool
        (Reg.to_string n ^ "'s color differs from b's")
        false
        (Reg.equal (color n) cb))

(* Iterated coalescing ----------------------------------------------------- *)

let test_iterated_coalesces_chain () =
  (* A chain of copies with no interference coalesces fully: zero moves
     survive finalization. *)
  let b = Builder.create ~name:"chain" ~n_params:0 in
  let a = Builder.iconst b 7 in
  let x = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:x ~src:a;
  let y = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:y ~src:x;
  Builder.ret b (Some y);
  let fn = Builder.finish b in
  let m = Machine.make ~k:8 () in
  let res = Iterated.allocate m fn in
  let t = Finalize.apply m res in
  check Alcotest.int "no moves kept" 0 t.Finalize.moves_kept

let test_iterated_no_spills_easy () =
  let m = Machine.make ~k:8 () in
  let fn, _, _, _ = diamond () in
  let res = Iterated.allocate m (Pipeline.prepare_func m fn) in
  check Alcotest.int "single round" 1 res.Alloc_common.rounds;
  check Alcotest.int "no spill code" 0 res.Alloc_common.spill_instrs;
  assert_valid_allocation m res

let test_iterated_conservative_under_pressure () =
  (* Iterated coalescing must not create spills that the uncoalesced
     graph avoids. *)
  let m = Machine.make ~k:8 () in
  let p = prepared_random_program ~m 77 in
  List.iter
    (fun fn ->
      let no_coalesce =
        Alloc_common.allocate
          {
            Alloc_common.name = "plain";
            coalesce = Alloc_common.No_coalesce;
            mode = Simplify.Optimistic;
            biased = false;
            order = Color_select.Nonvolatile_first;
          }
          m fn
      in
      let it = Iterated.allocate m fn in
      check Alcotest.bool
        (Printf.sprintf "%s: iterated (%d) <= plain (%d) + slack" fn.Cfg.name
           it.Alloc_common.spill_instrs no_coalesce.Alloc_common.spill_instrs)
        true
        (it.Alloc_common.spill_instrs
        <= no_coalesce.Alloc_common.spill_instrs + 2))
    p.Cfg.funcs

(* The dense worklists against the Reg.Set reference: the reply bytes
   of every function (a failure's message in its place) must agree. *)
let reply_bytes allocate m (p : Cfg.program) =
  List.map
    (fun f ->
      match allocate m (Cfg.clone f) with
      | res -> Protocol.encode_func_reply res (Finalize.apply m res)
      | exception Alloc_common.Failed msg -> "failed: " ^ msg)
    p.Cfg.funcs

let same_as_reference m p =
  reply_bytes Iterated.allocate m p = reply_bytes Ref_iterated.allocate m p

let prop_iterated_matches_reference =
  qcheck ~count:12 "iterated matches the Reg.Set reference" seed_gen
    (fun seed ->
      List.for_all
        (fun m ->
          same_as_reference m (Pipeline.prepare m (random_program seed)))
        [
          (* the generator's calls pass up to three integer arguments *)
          Machine.make ~k:4 ~n_volatile:4 ~n_arg_regs:3 ();
          Machine.make ~k:8 ();
          Machine.make ~k:16 ();
        ])

(* The Suite at k = 16 and 24, and each profile's fifth seeded variant
   at k = 12: inputs where the order of merged move lists shows. *)
let test_iterated_matches_reference_on_suite () =
  let run k name p =
    let m = Machine.make ~k () in
    check Alcotest.bool
      (Printf.sprintf "%s at k=%d" name k)
      true
      (same_as_reference m (Pipeline.prepare m p))
  in
  List.iter
    (fun (name, p) ->
      run 16 name p;
      run 24 name p)
    (Suite.all ());
  List.iter
    (fun name ->
      let prof = Suite.profile name in
      run 12 (name ^ " variant 5")
        (Gen.generate { prof with Gen.seed = prof.Gen.seed + (7919 * 5) }))
    Suite.names

(* Park-Moon optimistic coalescing ----------------------------------------- *)

let test_park_moon_undoes_harmful_coalesce () =
  (* jess at k=8 forces undo decisions; the allocation must stay valid
     and semantics-preserving. *)
  let m = Machine.make ~k:8 () in
  let p = Pipeline.prepare m (Suite.program "jess") in
  let before = Interp.run p in
  let a = Pipeline.allocate_program Pipeline.optimistic m p in
  let after = Interp.run ~machine:m a.Pipeline.program in
  check Alcotest.bool "semantics under undo pressure" true
    (Interp.equal_value before.Interp.value after.Interp.value)

let test_park_moon_merges_like_aggressive_when_easy () =
  let m = Machine.make ~k:16 () in
  let fn, _ = Fig7.build () in
  let res = Park_moon.allocate m (Cfg.clone fn) in
  let t = Finalize.apply m res in
  (* Both copies of fig7 coalesce away. *)
  check Alcotest.int "no moves kept" 0 t.Finalize.moves_kept

(* Lueh-Gross ---------------------------------------------------------------- *)

let test_lueh_gross_benefits () =
  let fn, regs = Fig7.build () in
  let webs = Webs.run fn in
  let fn' = webs.Webs.func in
  let web_of orig =
    Reg.Tbl.fold
      (fun w o acc -> if Reg.equal o orig then w else acc)
      webs.Webs.origin orig
  in
  let str = Strength.of_analysis (analyze fn') in
  let b = Strength.volatility str (web_of regs.Fig7.v4) in
  (* v4 crosses the call at frequency 10: volatile benefit
     spill(30) - 3*10 = 0; non-volatile benefit 30 - 2 = 28. *)
  check Alcotest.int "volatile benefit" 0 b.Strength.vol;
  check Alcotest.int "non-volatile benefit" 28 b.Strength.nonvol;
  let b1 = Strength.volatility str (web_of regs.Fig7.v1) in
  check Alcotest.bool "non-crosser prefers volatile" true
    (b1.Strength.vol > b1.Strength.nonvol)

let test_lueh_gross_puts_crossers_in_nonvolatile () =
  let m = Machine.make ~k:8 () in
  let fn, regs = Fig7.build () in
  let res = Lueh_gross.allocate m (Cfg.clone fn) in
  (* Find the web renaming v4 in the result's body: its origin chain is
     internal, so instead check *some* register crossing the call ended
     non-volatile by running the finalizer and confirming a callee save
     exists (a non-volatile register is written). *)
  ignore regs;
  let t = Finalize.apply m res in
  check Alcotest.bool "uses a callee-saved register" true
    (t.Finalize.callee_saved >= 1)

let test_lueh_gross_beats_blind_on_calls () =
  let m = Machine.middle_pressure in
  let p = Pipeline.prepare m (Suite.program "jack") in
  let cycles algo = Pipeline.cycles (Pipeline.allocate_program algo m p) in
  check Alcotest.bool "call-cost direction pays" true
    (cycles Pipeline.aggressive_volatility < cycles Pipeline.briggs_aggressive)

(* Priority-based ------------------------------------------------------------ *)

let test_priority_orders_by_benefit_density () =
  (* Hot short ranges win registers before long cold ones when both
     cannot fit. *)
  let m = Machine.middle_pressure in
  let p = Pipeline.prepare m (Suite.program "compress") in
  List.iter
    (fun fn ->
      let res = Priority_based.allocate m fn in
      assert_valid_allocation m res)
    p.Cfg.funcs

let () =
  Alcotest.run "baselines"
    [
      ( "color_select",
        [
          tc "non-volatile first" test_select_nonvolatile_first;
          tc "volatile first" test_select_volatile_first;
          tc "biased partner color" test_select_biased_takes_partner_color;
          tc "availability excludes neighbors" test_select_avail_excludes_neighbors;
        ] );
      ( "iterated",
        [
          tc "coalesces chains" test_iterated_coalesces_chain;
          tc "easy graphs need one round" test_iterated_no_spills_easy;
          tc "conservative under pressure" test_iterated_conservative_under_pressure;
          tc "suite matches the reference" test_iterated_matches_reference_on_suite;
          prop_iterated_matches_reference;
        ] );
      ( "park-moon",
        [
          tc "undo pressure" test_park_moon_undoes_harmful_coalesce;
          tc "merges when easy" test_park_moon_merges_like_aggressive_when_easy;
        ] );
      ( "lueh-gross",
        [
          tc "benefit functions" test_lueh_gross_benefits;
          tc "crossers end non-volatile" test_lueh_gross_puts_crossers_in_nonvolatile;
          tc "beats blindness on calls" test_lueh_gross_beats_blind_on_calls;
        ] );
      ( "priority",
        [ tc "valid on compress" test_priority_orders_by_benefit_density ] );
    ]
