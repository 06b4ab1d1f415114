(* Web construction (renumber) tests. *)

open Helpers

let count_defs fn r =
  Cfg.fold_instrs fn
    (fun acc _ i ->
      if List.exists (Reg.equal r) (Instr.defs i.Instr.kind) then acc + 1
      else acc)
    0

let test_straightline_identity_shape () =
  let fn, _, _, _, _ = straightline () in
  let webs = Webs.run fn in
  check Alcotest.bool "valid" true (Result.is_ok (Cfg.validate webs.Webs.func));
  (* Four virtual registers in, four webs out. *)
  check Alcotest.int "webs" 4
    (Reg.Set.cardinal (Cfg.all_vregs webs.Webs.func))

let test_diamond_webs () =
  let fn, _, _, x = diamond () in
  let webs = Webs.run fn in
  let fn' = webs.Webs.func in
  (* x has three defs: the initial copy forms its own web (killed on
     both paths), the two arm definitions join at the ret use. *)
  let x_webs =
    Reg.Tbl.fold
      (fun w orig acc -> if Reg.equal orig x then w :: acc else acc)
      webs.Webs.origin []
  in
  check Alcotest.int "x splits into two webs" 2 (List.length x_webs);
  (* The web used by ret has two defs (one per arm). *)
  let ret_web =
    List.find
      (fun w -> count_defs fn' w = 2)
      x_webs
  in
  check Alcotest.int "merged arm web" 2 (count_defs fn' ret_web)

let test_loop_single_web () =
  let fn, acc, _, _, _, _ = counted_loop () in
  let webs = Webs.run fn in
  (* acc's initial def and loop def are connected through the header
     use: one web. *)
  let acc_webs =
    Reg.Tbl.fold
      (fun w orig acc' -> if Reg.equal orig acc then w :: acc' else acc')
      webs.Webs.origin []
  in
  check Alcotest.int "acc is one web" 1 (List.length acc_webs)

let test_fig7_webs () =
  let fn, regs = Fig7.build () in
  let webs = Webs.run fn in
  ignore regs;
  (* v0 (defined twice, joined through the loop) must be one web;
     every original register keeps exactly one web in this example. *)
  let count_origin orig =
    Reg.Tbl.fold
      (fun _ o acc -> if Reg.equal o orig then acc + 1 else acc)
      webs.Webs.origin 0
  in
  List.iter
    (fun (name, r) ->
      check Alcotest.int (name ^ " single web") 1 (count_origin r))
    [ ("v0", regs.Fig7.v0); ("v1", regs.Fig7.v1); ("v2", regs.Fig7.v2);
      ("v3", regs.Fig7.v3); ("v4", regs.Fig7.v4) ]

let test_rejects_phis () =
  let fn, _, _, _ = diamond () in
  let ssa = Ssa_construct.run fn in
  Alcotest.check_raises "phis rejected"
    (Invalid_argument "Webs.run: phi instructions present") (fun () ->
      ignore (Webs.run ssa))

let test_phys_untouched () =
  let fn, _ = Fig7.build () in
  let webs = Webs.run fn in
  let phys fn =
    Cfg.fold_instrs fn
      (fun acc _ i ->
        List.fold_left
          (fun acc r -> if Reg.is_phys r then Reg.Set.add r acc else acc)
          acc
          (Instr.defs i.Instr.kind @ Instr.uses i.Instr.kind))
      Reg.Set.empty
  in
  let phys_before = phys fn and phys_after = phys webs.Webs.func in
  check reg_set_testable "physical registers preserved" phys_before phys_after

let prop_webs_preserve_semantics =
  qcheck ~count:40 "renumbering preserves program results" seed_gen
    (fun seed ->
      let p = random_program seed in
      let before = Interp.run p in
      let funcs = List.map (fun f -> (Webs.run (Cfg.clone f)).Webs.func) p.Cfg.funcs in
      let after = Interp.run { p with Cfg.funcs } in
      Interp.equal_value before.Interp.value after.Interp.value)

let prop_webs_idempotent_count =
  qcheck ~count:25 "renumbering twice yields the same web count" seed_gen
    (fun seed ->
      let p = random_program seed in
      List.for_all
        (fun fn ->
          let w1 = Webs.run (Cfg.clone fn) in
          let w2 = Webs.run (Cfg.clone w1.Webs.func) in
          Reg.Set.cardinal (Cfg.all_vregs w1.Webs.func)
          = Reg.Set.cardinal (Cfg.all_vregs w2.Webs.func))
        p.Cfg.funcs)

let () =
  Alcotest.run "webs"
    [
      ( "unit",
        [
          tc "straightline" test_straightline_identity_shape;
          tc "diamond splits" test_diamond_webs;
          tc "loop joins" test_loop_single_web;
          tc "fig7 webs" test_fig7_webs;
          tc "rejects phis" test_rejects_phis;
          tc "physical registers untouched" test_phys_untouched;
        ] );
      ( "props",
        [ prop_webs_preserve_semantics; prop_webs_idempotent_count ] );
    ]
