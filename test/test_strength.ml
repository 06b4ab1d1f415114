(* Preference-strength (Appendix cost model) tests, anchored to the
   numbers visible in the paper's Fig. 7. *)

open Helpers

let fig7_context () =
  let fn, regs = Fig7.build () in
  let webs = Webs.run fn in
  let fn' = webs.Webs.func in
  let web_of orig =
    Reg.Tbl.fold
      (fun w o acc -> if Reg.equal o orig then w else acc)
      webs.Webs.origin orig
  in
  let str = Strength.of_analysis (analyze fn') in
  ( fn',
    str,
    {
      Fig7.v0 = web_of regs.Fig7.v0;
      v1 = web_of regs.Fig7.v1;
      v2 = web_of regs.Fig7.v2;
      v3 = web_of regs.Fig7.v3;
      v4 = web_of regs.Fig7.v4;
    } )

let find_move fn ~dst ~src =
  Cfg.fold_instrs fn
    (fun acc _ i ->
      match i.Instr.kind with
      | Instr.Move { dst = d; src = s }
        when Reg.equal d dst && Reg.equal s src ->
          Some i.Instr.id
      | _ -> acc)
    None
  |> Option.get

let test_v3_coalesce_weights () =
  let fn, str, regs = fig7_context () in
  (* The copy v3 = v0: the paper's Fig. 7(c) weighs this coalesce at 40
     toward a volatile register and 38 toward a non-volatile one. *)
  let id = find_move fn ~dst:regs.Fig7.v3 ~src:regs.Fig7.v0 in
  let w = Strength.coalesce str regs.Fig7.v3 ~instr_id:id in
  check Alcotest.int "vol weight" 40 w.Strength.vol;
  check Alcotest.int "nonvol weight" 38 w.Strength.nonvol

let test_v3_dedicated_weights () =
  let fn, str, regs = fig7_context () in
  (* arg0 = v3 is v3's other coalesce edge — same strengths. *)
  let id = find_move fn ~dst:(Reg.phys Reg.Int_class 0) ~src:regs.Fig7.v3 in
  let w = Strength.coalesce str regs.Fig7.v3 ~instr_id:id in
  check Alcotest.int "vol weight" 40 w.Strength.vol;
  check Alcotest.int "nonvol weight" 38 w.Strength.nonvol

let test_v4_volatility () =
  let _, str, regs = fig7_context () in
  (* v4 crosses the call: the paper's "prefers non-volatile, 28". *)
  let w = Strength.volatility str regs.Fig7.v4 in
  check Alcotest.int "nonvol side" 28 w.Strength.nonvol;
  check Alcotest.int "vol side" 0 w.Strength.vol

let test_v4_crossings () =
  let _, str, regs = fig7_context () in
  (* The call executes at loop frequency 10. *)
  check Alcotest.int "weighted crossings" 10
    (Strength.crossings str regs.Fig7.v4)

let test_non_crossing_prefers_volatile () =
  let _, str, regs = fig7_context () in
  (* v1 dies before the call: its volatile side beats its non-volatile
     side by the callee-save cost. *)
  let w = Strength.volatility str regs.Fig7.v1 in
  check Alcotest.int "difference is callee save" Costs.callee_save
    (w.Strength.vol - w.Strength.nonvol);
  check Alcotest.int "no crossings" 0 (Strength.crossings str regs.Fig7.v1)

let test_sequential_discount () =
  let fn, str, regs = fig7_context () in
  (* The high load of the pair (v2's) discounts a 2-cycle load at
     frequency 10 over the coalesce-free baseline. *)
  let load_id =
    Cfg.fold_instrs fn
      (fun acc _ i ->
        match i.Instr.kind with
        | Instr.Load { dst; _ } when Reg.equal dst regs.Fig7.v2 -> Some i.Instr.id
        | _ -> acc)
      None
    |> Option.get
  in
  let w_seq = Strength.sequential str regs.Fig7.v2 ~instr_id:load_id in
  let w_base = Strength.volatility str regs.Fig7.v2 in
  check Alcotest.int "discount = 2 * freq" (Costs.memory_op * 10)
    (w_seq.Strength.vol - w_base.Strength.vol)

let test_memory_strength () =
  let _, str, regs = fig7_context () in
  (* Every Fig. 7 range is worth keeping in a register. *)
  List.iter
    (fun (n, r) ->
      check Alcotest.int (n ^ " memory strength") 0 (Strength.memory str r))
    [
      ("v0", regs.Fig7.v0); ("v1", regs.Fig7.v1); ("v2", regs.Fig7.v2);
      ("v3", regs.Fig7.v3); ("v4", regs.Fig7.v4);
    ]

let test_memory_positive_for_heavy_crossers () =
  (* A register crossing many high-frequency calls and barely used
     prefers memory. *)
  let b = Builder.create ~name:"cross" ~n_params:1 in
  let x = Builder.reg b Reg.Int_class in
  Builder.param b x 0;
  let n = Builder.iconst b 4 in
  let i = Builder.iconst b 0 in
  let header = Builder.new_block b in
  let body = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.jump b header;
  Builder.switch_to b header;
  let c = Builder.cmp b Instr.Lt i n in
  Builder.branch b c ~ifso:body ~ifnot:exit;
  Builder.switch_to b body;
  Builder.call_void b "g" [];
  Builder.call_void b "g" [];
  let one = Builder.iconst b 1 in
  Builder.emit b (Instr.Binop { op = Instr.Add; dst = i; src1 = i; src2 = one });
  Builder.jump b header;
  Builder.switch_to b exit;
  Builder.ret b (Some x);
  let fn = Builder.finish b in
  let str = Strength.of_analysis (analyze fn) in
  (* x: spill cost ~ 1 (def) + 2 (ret use) = 3; crossings = 2 calls at
     freq 10 = 20 -> volatile side 3 - 60 < 0; nonvol side 3 - 2 = 1.
     Best residence is still a register (nonvol side positive), so
     memory strength is 0 — but the volatile side is deeply negative. *)
  let w = Strength.volatility str x in
  check Alcotest.bool "volatile side negative" true (w.Strength.vol < 0);
  check Alcotest.int "nonvol side" 1 w.Strength.nonvol;
  check Alcotest.int "memory strength" 0 (Strength.memory str x)

let test_weight_helpers () =
  let w = { Strength.vol = 5; nonvol = 9 } in
  check Alcotest.int "best" 9 (Strength.best w);
  check Alcotest.int "vol side" 5 (Strength.weight_for ~volatile:true w);
  check Alcotest.int "nonvol side" 9 (Strength.weight_for ~volatile:false w)

let test_freq_of_instr () =
  let fn, str, _ = fig7_context () in
  (* The loop body instructions run at frequency 10, entry at 1. *)
  let entry_id =
    (Cfg.block fn fn.Cfg.entry).Cfg.instrs.(0).Instr.id
  in
  check Alcotest.int "entry freq" 1 (Strength.freq_of_instr str entry_id)

(* [Strength.build] counts crossings over liveness bits; this is the
   [Reg.Set] walk it replaced, checked on every virtual register. *)
let ref_crossings (fn : Cfg.func) live loops =
  let tbl = Reg.Tbl.create 64 in
  List.iter
    (fun (b : Cfg.block) ->
      let f = Loops.frequency loops b.Cfg.label in
      Liveness.fold_block_backward live b ~init:() ~f:(fun () ~live_out i ->
          match i.Instr.kind with
          | Instr.Call { dst; _ } ->
              let across =
                match dst with
                | Some d -> Reg.Set.remove d live_out
                | None -> live_out
              in
              Reg.Set.iter
                (fun r ->
                  let cur = try Reg.Tbl.find tbl r with Not_found -> 0 in
                  Reg.Tbl.replace tbl r (cur + f))
                across
          | _ -> ()))
    fn.Cfg.blocks;
  fun r -> try Reg.Tbl.find tbl r with Not_found -> 0

(* Both the source programs, whose calls define virtual registers, and
   their lowered, renumbered form, where a call defines the return
   register. *)
let test_crossings_match_reg_set_walk () =
  let check_fn name fn =
    let a = analyze fn in
    let str = Strength.of_analysis a in
    let expected = ref_crossings fn a.Alloc_common.live a.Alloc_common.loops in
    Reg.Set.iter
      (fun r ->
        check Alcotest.int
          (Printf.sprintf "%s/%s %s" name fn.Cfg.name (Reg.to_string r))
          (expected r) (Strength.crossings str r))
      (Cfg.all_vregs fn)
  in
  List.iter
    (fun (name, p) ->
      List.iter (check_fn name) p.Cfg.funcs;
      let prepared = Pipeline.prepare (Machine.make ~k:16 ()) p in
      List.iter
        (fun fn -> check_fn name (Webs.run (Cfg.clone fn)).Webs.func)
        prepared.Cfg.funcs)
    (Suite.all ())

let () =
  Alcotest.run "strength"
    [
      ( "fig7",
        [
          tc "v3 coalesce 40/38" test_v3_coalesce_weights;
          tc "v3 dedicated-use 40/38" test_v3_dedicated_weights;
          tc "v4 prefers non-volatile at 28" test_v4_volatility;
          tc "v4 crossings" test_v4_crossings;
          tc "non-crossers prefer volatile" test_non_crossing_prefers_volatile;
          tc "sequential discount" test_sequential_discount;
          tc "memory strengths zero" test_memory_strength;
          tc "entry frequency" test_freq_of_instr;
        ] );
      ( "model",
        [
          tc "heavy crossers" test_memory_positive_for_heavy_crossers;
          tc "weight helpers" test_weight_helpers;
          tc "crossings = Reg.Set walk" test_crossings_match_reg_set_walk;
        ] );
    ]
