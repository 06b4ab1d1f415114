(* Machine description, cost constants and lowering tests. *)

open Helpers

let test_pressure_models () =
  check Alcotest.int "middle" 24 Machine.middle_pressure.Machine.k;
  List.iter
    (fun m ->
      check Alcotest.int
        (Printf.sprintf "k=%d half volatile" m.Machine.k)
        (m.Machine.k / 2) m.Machine.n_volatile)
    [ Machine.make ~k:16 (); Machine.middle_pressure; Machine.make ~k:32 () ]

let test_volatile_partition () =
  let m = Machine.middle_pressure in
  let all = file_regs m Reg.Int_class in
  check Alcotest.int "total" m.Machine.k (List.length all);
  check Alcotest.int "volatile count" m.Machine.n_volatile
    (List.length (List.filter (Machine.is_volatile m) all));
  List.iter
    (fun r ->
      let bit = 1 lsl Reg.phys_index r in
      check Alcotest.bool
        (Reg.to_string r ^ " in exactly one mask")
        true
        ((Machine.volatile_mask m land bit <> 0) = Machine.is_volatile m r
        && (Machine.nonvolatile_mask m land bit <> 0)
           = not (Machine.is_volatile m r)))
    all;
  check Alcotest.bool "r0 volatile" true
    (Machine.is_volatile m (Reg.phys Reg.Int_class 0));
  check Alcotest.bool "last not volatile" false
    (Machine.is_volatile m (Reg.phys Reg.Int_class (m.Machine.k - 1)))

let test_arg_and_ret_regs () =
  let m = Machine.middle_pressure in
  check reg_testable "ret" (Reg.phys Reg.Int_class 0)
    (Machine.ret_reg m Reg.Int_class);
  check reg_testable "arg0" (Reg.phys Reg.Int_class 1)
    (Machine.arg_reg m Reg.Int_class 0);
  check Alcotest.bool "args volatile" true
    (Machine.is_volatile m (Machine.arg_reg m Reg.Int_class 0));
  Alcotest.check_raises "out of args"
    (Invalid_argument
       (Printf.sprintf "Machine.arg_reg: no argument register %d"
          m.Machine.n_arg_regs))
    (fun () -> ignore (Machine.arg_reg m Reg.Int_class m.Machine.n_arg_regs))

let test_pair_rules () =
  let parity = Machine.make ~pair_rule:Machine.Parity ~k:16 () in
  let consec = Machine.make ~pair_rule:Machine.Consecutive ~k:16 () in
  let r i = Reg.phys Reg.Int_class i in
  check Alcotest.bool "parity 2,3" true (Machine.pair_ok parity (r 2) (r 3));
  check Alcotest.bool "parity 3,6" true (Machine.pair_ok parity (r 3) (r 6));
  check Alcotest.bool "parity 2,4" false (Machine.pair_ok parity (r 2) (r 4));
  check Alcotest.bool "consec 2,3" true (Machine.pair_ok consec (r 2) (r 3));
  check Alcotest.bool "consec 3,6" false (Machine.pair_ok consec (r 3) (r 6));
  check Alcotest.bool "consec 3,2" false (Machine.pair_ok consec (r 3) (r 2));
  (* Cross-class pairs never fuse. *)
  check Alcotest.bool "cross class" false
    (Machine.pair_ok parity (r 2) (Reg.phys Reg.Float_class 3))

let test_limited_set () =
  let m = Machine.make ~k:16 () in
  check Alcotest.bool "r0 limited" true
    (Machine.in_limited_set m (Reg.phys Reg.Int_class 0));
  check Alcotest.bool "r15 not limited" false
    (Machine.in_limited_set m (Reg.phys Reg.Int_class 15))

let test_make_validates () =
  Alcotest.check_raises "k too small"
    (Invalid_argument "Machine.make: unsupported k = 2") (fun () ->
      ignore (Machine.make ~k:2 ()));
  Alcotest.check_raises "k too large"
    (Invalid_argument "Machine.make: unsupported k = 64") (fun () ->
      ignore (Machine.make ~k:64 ()))

let test_masks_and_pick () =
  let m = Machine.make ~k:16 () in
  check Alcotest.int "file" 0xffff (Machine.file_mask m);
  check Alcotest.int "volatile" 0x00ff (Machine.volatile_mask m);
  check Alcotest.int "nonvolatile" 0xff00 (Machine.nonvolatile_mask m);
  check Alcotest.int "limited" 0x000f (Machine.limited_mask m);
  let nonvol = Machine.nonvolatile_mask m in
  check Alcotest.int "preferred half first" 9
    (Machine.pick ~prefer:nonvol 0b1010_0000_0110);
  check Alcotest.int "else the lowest free" 1
    (Machine.pick ~prefer:nonvol 0b0000_0000_0110);
  check Alcotest.int "no preference" 1 (Machine.pick ~prefer:0 0b1010_0000_0110);
  check Alcotest.int "nothing free" (-1) (Machine.pick ~prefer:nonvol 0);
  let widest = Machine.make ~k:62 () in
  check Alcotest.int "widest file" max_int (Machine.file_mask widest);
  check Alcotest.int "its top register" 61
    (Machine.pick ~prefer:0 (1 lsl 61))

(* The widest file a register mask holds: every allocator, pdgc's
   select included, allocates at k = 62. *)
let test_widest_file_allocates () =
  let m = Machine.make ~k:62 () in
  let p = Pipeline.prepare m (Suite.program "mtrt") in
  check Alcotest.int "eight allocators" 8 (List.length (Allocator.all ()));
  List.iter
    (fun a ->
      List.iter
        (fun fn -> assert_valid_allocation m (Allocator.exec a m fn))
        p.Cfg.funcs)
    (Allocator.all ())

let test_costs () =
  check Alcotest.int "load" 2 (Costs.inst_cost (Instr.Load { dst = 0; base = 0; offset = 0 }));
  check Alcotest.int "store" 1
    (Costs.inst_cost (Instr.Store { src = 0; base = 0; offset = 0 }));
  check Alcotest.int "reload = load" Costs.load
    (Costs.inst_cost (Instr.Reload { dst = 0; slot = 0 }));
  check Alcotest.int "spill = store" Costs.store
    (Costs.inst_cost (Instr.Spill { src = 0; slot = 0 }));
  check Alcotest.int "move" 1 (Costs.inst_cost (Instr.Move { dst = 0; src = 1 }));
  check Alcotest.int "phi free" 0
    (Costs.inst_cost (Instr.Phi { dst = 0; srcs = [] }))

(* Lowering --------------------------------------------------------------- *)

let test_lower_params () =
  let b = Builder.create ~name:"f" ~n_params:2 in
  let x = Builder.reg b Reg.Int_class in
  let y = Builder.reg b Reg.Float_class in
  Builder.param b x 0;
  Builder.param b y 1;
  let i = Builder.unop b Instr.Ftoi y in
  let s = Builder.binop b Instr.Add x i in
  Builder.ret b (Some s);
  let fn = Builder.finish b in
  let m = Machine.middle_pressure in
  let lowered = Lower.func m fn in
  (* Params become moves from the per-class argument registers: the int
     param is int-arg 0, the float param float-arg 0. *)
  let entry = Cfg.block lowered lowered.Cfg.entry in
  let moves =
    List.filter_map
      (fun i ->
        match i.Instr.kind with
        | Instr.Move { dst; src } when Reg.is_phys src -> Some (dst, src)
        | _ -> None)
      (Array.to_list entry.Cfg.instrs)
  in
  check Alcotest.bool "int param from int arg0" true
    (List.mem (x, Machine.arg_reg m Reg.Int_class 0) moves);
  check Alcotest.bool "float param from float arg0" true
    (List.mem (y, Machine.arg_reg m Reg.Float_class 0) moves)

let test_lower_call_and_ret () =
  let b = Builder.create ~name:"main" ~n_params:0 in
  let a1 = Builder.iconst b 1 in
  let a2 = Builder.fconst b 2.0 in
  let r = Builder.call b "g" [ a1; a2 ] in
  Builder.ret b (Some r);
  let fn = Builder.finish b in
  let m = Machine.middle_pressure in
  let lowered = Lower.func m fn in
  let saw_call = ref false in
  Cfg.iter_instrs lowered (fun _ i ->
      match i.Instr.kind with
      | Instr.Call { dst; args; _ } ->
          saw_call := true;
          check (Alcotest.option reg_testable) "result in ret reg"
            (Some (Machine.ret_reg m Reg.Int_class))
            dst;
          check
            (Alcotest.list reg_testable)
            "args in per-class arg regs"
            [
              Machine.arg_reg m Reg.Int_class 0;
              Machine.arg_reg m Reg.Float_class 0;
            ]
            args
      | Instr.Param _ -> Alcotest.fail "param survived"
      | _ -> ());
  check Alcotest.bool "call present" true !saw_call;
  (* Return value flows through the dedicated return register. *)
  let ret_through_phys =
    Cfg.fold_instrs lowered
      (fun acc _ i ->
        match i.Instr.kind with
        | Instr.Ret (Some r) -> acc || Reg.equal r (Machine.ret_reg m Reg.Int_class)
        | _ -> acc)
      false
  in
  check Alcotest.bool "ret via r0" true ret_through_phys

let test_lower_too_many_args () =
  let m = Machine.make ~k:16 () in
  let b = Builder.create ~name:"main" ~n_params:0 in
  let args = List.init 9 (fun i -> Builder.iconst b i) in
  let r = Builder.call b "g" args in
  Builder.ret b (Some r);
  let fn = Builder.finish b in
  check Alcotest.bool "rejected" true
    (try
       ignore (Lower.func m fn);
       false
     with Invalid_argument _ -> true)

let prop_lowering_preserves_semantics =
  qcheck ~count:30 "lowering preserves program results" seed_gen (fun seed ->
      let p = random_program seed in
      let before = Interp.run p in
      let after = Interp.run (Lower.program Machine.middle_pressure p) in
      Interp.equal_value before.Interp.value after.Interp.value)

(* Priority-based allocator (the §7 reference point) -------------------- *)

let test_priority_based_valid () =
  let m = Machine.middle_pressure in
  let p = Pipeline.prepare m (Suite.program "mtrt") in
  List.iter
    (fun fn ->
      let res = Priority_based.allocate m fn in
      assert_valid_allocation m res)
    p.Cfg.funcs

let prop_priority_based_semantics =
  qcheck ~count:20 "priority-based preserves semantics" seed_gen (fun seed ->
      assert_semantics_preserved "priority" Pipeline.priority_based seed;
      true)

(* Ablation configurations ------------------------------------------------ *)

let test_ablation_configs_valid () =
  let m = Machine.middle_pressure in
  let p = Pipeline.prepare m (Suite.program "jess") in
  List.iter
    (fun algo ->
      List.iter
        (fun fn ->
          let res = Allocator.exec algo m fn in
          check Alcotest.bool (algo.Allocator.label ^ " completes") true
            (res.Alloc_common.rounds >= 1);
          assert_valid_allocation m res)
        p.Cfg.funcs)
    Experiments.ablation_configs

let test_strict_order_matches_paper_on_fig7 () =
  (* Even without relaxation the Fig. 7 example colors fully (it is the
     preferences, not the order, that this tiny example needs). *)
  let fn, _ = Fig7.build () in
  let res =
    Pdgc.allocate_config
      {
        Pdgc.variant = Pdgc.Full_preferences;
        policy = Pdgc_select.Differential;
        relax_order = false;
        rematerialize = false;
      }
      (Machine.make ~k:4 ()) fn
  in
  check Alcotest.int "no spill code" 0 res.Alloc_common.spill_instrs

(* Pair scheduling --------------------------------------------------------- *)

let test_pair_schedule_hoists () =
  (* load a; unrelated op; load a+8  ->  the second load moves up. *)
  let b = Builder.create ~name:"ps" ~n_params:1 in
  let base = Builder.reg b Reg.Int_class in
  Builder.param b base 0;
  let lo = Builder.load b ~base ~offset:0 () in
  let t = Builder.binop b Instr.Add lo lo in
  let hi = Builder.load b ~base ~offset:8 () in
  let s = Builder.binop b Instr.Add t hi in
  Builder.ret b (Some s);
  let fn = Builder.finish b in
  let fn' = Pair_schedule.func fn in
  let kinds =
    (Cfg.block fn' fn'.Cfg.entry).Cfg.instrs
    |> Array.to_list
    |> List.map (fun i -> i.Instr.kind)
  in
  (match kinds with
  | Instr.Param _ :: Instr.Load _ :: Instr.Load l2 :: _ ->
      check Alcotest.int "hoisted offset" 8 l2.offset
  | _ -> Alcotest.fail "second load not hoisted");
  (* Semantics preserved. *)
  let before = Interp.run ~args:[ Interp.Int 64 ] { Cfg.funcs = [ fn ]; main = "ps" } in
  let after = Interp.run ~args:[ Interp.Int 64 ] { Cfg.funcs = [ fn' ]; main = "ps" } in
  check Alcotest.bool "same result" true
    (Interp.equal_value before.Interp.value after.Interp.value)

let test_pair_schedule_blocked_by_store () =
  (* A store between the loads may alias: no hoisting. *)
  let b = Builder.create ~name:"ps2" ~n_params:1 in
  let base = Builder.reg b Reg.Int_class in
  Builder.param b base 0;
  let lo = Builder.load b ~base ~offset:0 () in
  Builder.store b ~src:lo ~base ~offset:8;
  let hi = Builder.load b ~base ~offset:8 () in
  let s = Builder.binop b Instr.Add lo hi in
  Builder.ret b (Some s);
  let fn = Builder.finish b in
  let fn' = Pair_schedule.func fn in
  let kinds =
    (Cfg.block fn' fn'.Cfg.entry).Cfg.instrs
    |> Array.to_list
    |> List.map (fun i -> i.Instr.kind)
  in
  match kinds with
  | Instr.Param _ :: Instr.Load _ :: Instr.Store _ :: Instr.Load _ :: _ -> ()
  | _ -> Alcotest.fail "store must block hoisting"

let test_pair_schedule_blocked_by_base_redef () =
  let b = Builder.create ~name:"ps3" ~n_params:1 in
  let base = Builder.reg b Reg.Int_class in
  Builder.param b base 0;
  let lo = Builder.load b ~base ~offset:0 () in
  let eight = Builder.iconst b 8 in
  Builder.emit b
    (Instr.Binop { op = Instr.Add; dst = base; src1 = base; src2 = eight });
  let hi = Builder.load b ~base ~offset:8 () in
  let s = Builder.binop b Instr.Add lo hi in
  Builder.ret b (Some s);
  let fn = Builder.finish b in
  let before = Interp.run ~args:[ Interp.Int 64 ] { Cfg.funcs = [ fn ]; main = "ps3" } in
  let fn' = Pair_schedule.func fn in
  let after = Interp.run ~args:[ Interp.Int 64 ] { Cfg.funcs = [ fn' ]; main = "ps3" } in
  check Alcotest.bool "semantics with base redefinition" true
    (Interp.equal_value before.Interp.value after.Interp.value)

let prop_pair_schedule_preserves_semantics =
  qcheck ~count:30 "pair scheduling preserves results" seed_gen (fun seed ->
      let p = random_program seed in
      let before = Interp.run p in
      let after = Interp.run (Pair_schedule.program p) in
      Interp.equal_value before.Interp.value after.Interp.value)

(* Dot output ------------------------------------------------------------- *)

let test_dot_outputs () =
  let a = Fig7.run () in
  let rpg_dot = Format.asprintf "%a" (Rpg.to_dot ?name:None) a.Fig7.rpg in
  let cpg_dot = Format.asprintf "%a" (Cpg.to_dot ?name:None) a.Fig7.cpg3 in
  check Alcotest.bool "rpg digraph" true
    (String.length rpg_dot > 20
    && String.sub rpg_dot 0 11 = "digraph rpg");
  check Alcotest.bool "cpg digraph" true
    (String.length cpg_dot > 20
    && String.sub cpg_dot 0 11 = "digraph cpg")

let () =
  Alcotest.run "target"
    [
      ( "machine",
        [
          tc "pressure models" test_pressure_models;
          tc "volatile partition" test_volatile_partition;
          tc "arg and ret registers" test_arg_and_ret_regs;
          tc "pair rules" test_pair_rules;
          tc "limited set" test_limited_set;
          tc "make validates" test_make_validates;
          tc "register masks and pick" test_masks_and_pick;
          tc "k = 62 allocates" test_widest_file_allocates;
          tc "cost constants" test_costs;
        ] );
      ( "lowering",
        [
          tc "params" test_lower_params;
          tc "calls and returns" test_lower_call_and_ret;
          tc "too many arguments" test_lower_too_many_args;
          prop_lowering_preserves_semantics;
        ] );
      ( "extensions",
        [
          tc "priority-based validity" test_priority_based_valid;
          prop_priority_based_semantics;
          tc "ablation configurations" test_ablation_configs_valid;
          tc "strict order on fig7" test_strict_order_matches_paper_on_fig7;
          tc "dot outputs" test_dot_outputs;
        ] );
      ( "pair scheduling",
        [
          tc "hoists fusable loads" test_pair_schedule_hoists;
          tc "stores block hoisting" test_pair_schedule_blocked_by_store;
          tc "base redefinition blocks" test_pair_schedule_blocked_by_base_redef;
          prop_pair_schedule_preserves_semantics;
        ] );
    ]
