(* Interpreter, finalizer, checker and cost-model tests. *)

open Helpers

let run_main fn = Interp.run { Cfg.funcs = [ fn ]; main = fn.Cfg.name }

let test_arith () =
  let b = Builder.create ~name:"main" ~n_params:0 in
  let x = Builder.iconst b 10 in
  let y = Builder.iconst b 3 in
  let checks =
    [
      (Instr.Add, 13); (Instr.Sub, 7); (Instr.Mul, 30); (Instr.Div, 3);
      (Instr.Rem, 1); (Instr.And, 2); (Instr.Or, 11); (Instr.Xor, 9);
    ]
  in
  let acc =
    List.fold_left
      (fun acc (op, _) ->
        let r = Builder.binop b op x y in
        Builder.binop b Instr.Add acc r)
      (Builder.iconst b 0) checks
  in
  Builder.ret b (Some acc);
  let fn = Builder.finish b in
  let expected = List.fold_left (fun a (_, v) -> a + v) 0 checks in
  let r = run_main fn in
  check Alcotest.bool "sum of ops" true
    (Interp.equal_value r.Interp.value (Some (Interp.Int expected)))

let test_division_by_zero_total () =
  let b = Builder.create ~name:"main" ~n_params:0 in
  let x = Builder.iconst b 10 in
  let z = Builder.iconst b 0 in
  let d = Builder.binop b Instr.Div x z in
  let m = Builder.binop b Instr.Rem x z in
  let s = Builder.binop b Instr.Add d m in
  Builder.ret b (Some s);
  let fn = Builder.finish b in
  let r = run_main fn in
  check Alcotest.bool "x/0 = 0" true
    (Interp.equal_value r.Interp.value (Some (Interp.Int 0)))

let test_float_ops () =
  let b = Builder.create ~name:"main" ~n_params:0 in
  let x = Builder.fconst b 2.5 in
  let y = Builder.fconst b 4.0 in
  let p = Builder.binop b Instr.Mul x y in
  let i = Builder.unop b Instr.Ftoi p in
  Builder.ret b (Some i);
  let fn = Builder.finish b in
  let r = run_main fn in
  check Alcotest.bool "2.5 * 4.0 -> 10" true
    (Interp.equal_value r.Interp.value (Some (Interp.Int 10)))

let test_memory () =
  let b = Builder.create ~name:"main" ~n_params:0 in
  let base = Builder.iconst b 64 in
  let v = Builder.iconst b 77 in
  Builder.store b ~src:v ~base ~offset:8;
  let l = Builder.load b ~base ~offset:8 () in
  Builder.ret b (Some l);
  let fn = Builder.finish b in
  let r = run_main fn in
  check Alcotest.bool "store/load roundtrip" true
    (Interp.equal_value r.Interp.value (Some (Interp.Int 77)))

let test_branches_and_loop () =
  let fn, _, _, _, _, _ = counted_loop ~trip:6 () in
  let r = run_main fn in
  check Alcotest.bool "0+1+..+5 = 15" true
    (Interp.equal_value r.Interp.value (Some (Interp.Int 15)))

let test_calls_and_params () =
  let b = Builder.create ~name:"add3" ~n_params:3 in
  let xs = List.init 3 (fun i ->
      let r = Builder.reg b Reg.Int_class in
      Builder.param b r i;
      r)
  in
  let s =
    List.fold_left (fun a x -> Builder.binop b Instr.Add a x) (List.hd xs)
      (List.tl xs)
  in
  Builder.ret b (Some s);
  let callee = Builder.finish b in
  let b = Builder.create ~name:"main" ~n_params:0 in
  let a1 = Builder.iconst b 1 in
  let a2 = Builder.iconst b 2 in
  let a3 = Builder.iconst b 3 in
  let r = Builder.call b "add3" [ a1; a2; a3 ] in
  Builder.ret b (Some r);
  let main = Builder.finish b in
  let res = Interp.run { Cfg.funcs = [ main; callee ]; main = "main" } in
  check Alcotest.bool "1+2+3" true
    (Interp.equal_value res.Interp.value (Some (Interp.Int 6)))

let test_spill_reload_slots () =
  let b = Builder.create ~name:"main" ~n_params:0 in
  let x = Builder.iconst b 42 in
  Builder.emit b (Instr.Spill { src = x; slot = 0 });
  let y = Builder.reg b Reg.Int_class in
  Builder.emit b (Instr.Reload { dst = y; slot = 0 });
  Builder.ret b (Some y);
  let fn = Builder.finish b in
  let r = run_main fn in
  check Alcotest.bool "slot roundtrip" true
    (Interp.equal_value r.Interp.value (Some (Interp.Int 42)))

let test_out_of_fuel () =
  let b = Builder.create ~name:"main" ~n_params:0 in
  let l = Builder.new_block b in
  Builder.jump b l;
  Builder.switch_to b l;
  Builder.jump b l;
  let fn = Builder.finish b in
  Alcotest.check_raises "fuel" Interp.Out_of_fuel (fun () ->
      ignore (Interp.run ~fuel:1000 { Cfg.funcs = [ fn ]; main = "main" }))

let test_cycle_accounting () =
  let b = Builder.create ~name:"main" ~n_params:0 in
  let x = Builder.iconst b 1 in
  (* const 1 + ret 1 = 2 cycles. *)
  Builder.ret b (Some x);
  let fn = Builder.finish b in
  let r = run_main fn in
  check Alcotest.int "cycles" 2 r.Interp.stats.Interp.cycles;
  check Alcotest.int "instrs" 2 r.Interp.stats.Interp.instrs

let test_limited_fixup_dynamic () =
  let m = Machine.middle_pressure in
  (* Limited op landing outside the limited set pays one extra cycle. *)
  let mk dst_index =
    let fn = Cfg.create_func ~name:"main" ~n_params:0 ~entry:0 in
    let dst = Reg.phys Reg.Int_class dst_index in
    let src = Reg.phys Reg.Int_class 0 in
    Cfg.with_blocks fn
      [
        {
          Cfg.label = 0;
          instrs =
            [|
              Cfg.instr fn (Instr.Limited { dst; src });
              Cfg.instr fn (Instr.Ret (Some dst));
            |];
        };
      ]
  in
  let run_ix i =
    (Interp.run ~machine:m { Cfg.funcs = [ mk i ]; main = "main" }).Interp.stats
  in
  let inside = run_ix 1 in
  let outside = run_ix (m.Machine.k - 1) in
  check Alcotest.int "no fixup inside" 0 inside.Interp.limited_fixups;
  check Alcotest.int "fixup outside" 1 outside.Interp.limited_fixups;
  check Alcotest.int "one cycle more"
    (inside.Interp.cycles + Costs.limited_fixup)
    outside.Interp.cycles

(* A caller keeps a value in a volatile register across a call whose
   callee never writes that register.  The shared register file would
   hand the value back intact; under [~machine] the call poisons the
   volatile registers, so the missing save shows in the result. *)
let test_volatile_poisoned_after_call () =
  let m = Machine.middle_pressure in
  let kept = Reg.phys Reg.Int_class 1 in
  let ret = Reg.phys Reg.Int_class m.Machine.ret_index in
  check Alcotest.bool "kept register is volatile" true
    (Machine.is_volatile m kept);
  let single name instrs =
    let fn = Cfg.create_func ~name ~n_params:0 ~entry:0 in
    Cfg.with_blocks fn
      [ { Cfg.label = 0; instrs = Array.of_list (List.map (Cfg.instr fn) instrs) } ]
  in
  let callee = single "leaf" [ Instr.Ret None ] in
  let main =
    single "main"
      [
        Instr.Const { dst = kept; value = 42L };
        Instr.Call { dst = Some ret; callee = "leaf"; args = [] };
        Instr.Ret (Some kept);
      ]
  in
  let p = { Cfg.funcs = [ main; callee ]; main = "main" } in
  check Alcotest.bool "survives without a machine" true
    (Interp.equal_value (Interp.run p).Interp.value (Some (Interp.Int 42)));
  check Alcotest.bool "poisoned under the machine" false
    (Interp.equal_value (Interp.run ~machine:m p).Interp.value
       (Some (Interp.Int 42)))

(* Pairing happens once, in [Finalize]: a different-parity pair becomes
   one [Load_pair] charged one load; a same-parity pair stays two
   loads. *)
let test_paired_load_fusion_dynamic () =
  let m = Machine.middle_pressure in
  let finalized lo hi =
    let fn = Cfg.create_func ~name:"main" ~n_params:0 ~entry:0 in
    let base = Reg.phys Reg.Int_class 0 in
    let fn =
      Cfg.with_blocks fn
        [
          {
            Cfg.label = 0;
            instrs =
              [|
                Cfg.instr fn
                  (Instr.Load { dst = Reg.phys Reg.Int_class lo; base; offset = 0 });
                Cfg.instr fn
                  (Instr.Load { dst = Reg.phys Reg.Int_class hi; base; offset = 8 });
                Cfg.instr fn (Instr.Ret None);
              |];
          };
        ]
    in
    Finalize.apply m
      {
        Alloc_common.func = fn;
        alloc = Reg.Tbl.create 1;
        rounds = 1;
        spill_instrs = 0;
        spill_slots = [];
      }
  in
  let stats (t : Finalize.t) =
    (Interp.run ~machine:m { Cfg.funcs = [ t.Finalize.func ]; main = "main" })
      .Interp.stats
  in
  let fused = finalized 2 3 and unfused = finalized 2 4 in
  check Alcotest.int "one Load_pair" 1 (Pairs.count_fused fused.Finalize.func);
  check Alcotest.int "counted as fused" 1 fused.Finalize.pairs_fused;
  check Alcotest.int "two loads" 0 (Pairs.count_fused unfused.Finalize.func);
  let fused = stats fused and unfused = stats unfused in
  check Alcotest.int "fused pair" 1 fused.Interp.fused_pairs;
  check Alcotest.int "unfused pair" 0 unfused.Interp.fused_pairs;
  check Alcotest.int "fusion saves a load"
    (unfused.Interp.cycles - Costs.load)
    fused.Interp.cycles

(* Finalize --------------------------------------------------------------- *)

let test_finalize_drops_same_color_moves () =
  let m = Machine.middle_pressure in
  let fn, _ = Fig7.build () in
  let res = Pdgc.allocate Pdgc.Full_preferences (Machine.make ~k:4 ()) fn in
  let t = Finalize.apply m res in
  check Alcotest.bool "some moves eliminated" true (t.Finalize.moves_eliminated > 0);
  (* The finalized body contains no same-register moves. *)
  Cfg.iter_instrs t.Finalize.func (fun _ i ->
      match i.Instr.kind with
      | Instr.Move { dst; src } when Reg.equal dst src ->
          Alcotest.fail "same-register move survived"
      | _ -> ())

let test_finalize_callee_saves () =
  (* A function writing a non-volatile register gets a prologue store
     and an epilogue reload. *)
  let m = Machine.make ~k:8 () in
  let nonvol = Reg.phys Reg.Int_class 6 in
  let fn = Cfg.create_func ~name:"main" ~n_params:0 ~entry:0 in
  let fn =
    Cfg.with_blocks fn
      [
        {
          Cfg.label = 0;
          instrs =
            [|
              Cfg.instr fn (Instr.Const { dst = nonvol; value = 3L });
              Cfg.instr fn (Instr.Ret (Some nonvol));
            |];
        };
      ]
  in
  (* Fake an allocation result with an empty mapping (all phys already). *)
  let res =
    {
      Alloc_common.func = fn;
      alloc = Reg.Tbl.create 0;
      rounds = 1;
      spill_instrs = 0;
      spill_slots = [];
    }
  in
  let t = Finalize.apply m res in
  check Alcotest.int "one callee save" 1 t.Finalize.callee_saved;
  let spills, reloads =
    Cfg.fold_instrs t.Finalize.func
      (fun (s, r) _ i ->
        match i.Instr.kind with
        | Instr.Spill _ -> (s + 1, r)
        | Instr.Reload _ -> (s, r + 1)
        | _ -> (s, r))
      (0, 0)
  in
  check Alcotest.int "prologue store" 1 spills;
  check Alcotest.int "epilogue reload" 1 reloads

let test_finalize_caller_saves_semantics () =
  (* Recursion-free cross-call clobbering: the interpreter's global
     register file makes missing caller saves observable; a finalized
     program must still compute the right value.  The pipeline test
     relies on this heavily — here is a focused version. *)
  let m = Machine.make ~k:8 () in
  let p = Pipeline.prepare m (Suite.program "jess") in
  let before = Interp.run p in
  let a = Pipeline.allocate_program Pipeline.chaitin_base m p in
  let after = Interp.run ~machine:m a.Pipeline.program in
  check Alcotest.bool "caller saves preserve values" true
    (Interp.equal_value before.Interp.value after.Interp.value)

(* Caller saves surround the call: one slot per register, handed out in
   ascending register order, the stores and the reloads each in
   descending register order (highest slot first).  The call's result
   is neither saved nor restored, though it is live after the call. *)
let test_finalize_caller_save_layout () =
  let m = Machine.make ~k:8 () in
  let r i = Reg.phys Reg.Int_class i in
  let ret = r m.Machine.ret_index in
  List.iter
    (fun x -> check Alcotest.bool "volatile" true (Machine.is_volatile m x))
    [ ret; r 1; r 2; r 3 ];
  let fn = Cfg.create_func ~name:"main" ~n_params:0 ~entry:0 in
  let add dst a b = Instr.Binop { op = Instr.Add; dst; src1 = a; src2 = b } in
  let call = Instr.Call { dst = Some ret; callee = "leaf"; args = [] } in
  let body =
    [
      Instr.Const { dst = r 3; value = 3L };
      Instr.Const { dst = r 1; value = 1L };
      Instr.Const { dst = r 2; value = 2L };
      call;
      add (r 1) (r 1) (r 2);
      add (r 1) (r 1) (r 3);
      add ret ret (r 1);
      Instr.Ret (Some ret);
    ]
  in
  let fn =
    Cfg.with_blocks fn
      [ { Cfg.label = 0; instrs = Array.of_list (List.map (Cfg.instr fn) body) } ]
  in
  let res =
    {
      Alloc_common.func = fn;
      alloc = Reg.Tbl.create 0;
      rounds = 1;
      spill_instrs = 0;
      spill_slots = [];
    }
  in
  let t = Finalize.apply m res in
  check Alcotest.int "caller-save instructions" 6 t.Finalize.caller_save_instrs;
  let show k = Format.asprintf "%a" Instr.pp_kind k in
  let got =
    Cfg.fold_instrs t.Finalize.func (fun acc _ i -> show i.Instr.kind :: acc) []
    |> List.rev
  in
  let save reg slot = show (Instr.Spill { src = r reg; slot }) in
  let restore reg slot = show (Instr.Reload { dst = r reg; slot }) in
  let expected =
    List.map show (List.filteri (fun i _ -> i < 3) body)
    @ [ save 3 2; save 2 1; save 1 0; show call ]
    @ [ restore 3 2; restore 2 1; restore 1 0 ]
    @ List.map show (List.filteri (fun i _ -> i > 3) body)
  in
  check Alcotest.(list string) "saves and restores around the call" expected got

(* Machine-code lint ------------------------------------------------------ *)

let lint_errors m fn = Diagnostic.errors (Lint.func (Lint.Machine m) fn)

let test_checker_accepts_machine_code () =
  let m = Machine.middle_pressure in
  let p = Pipeline.prepare m (Suite.program "compress") in
  let a = Pipeline.allocate_program Pipeline.optimistic m p in
  check Alcotest.int "accepted" 0
    (List.length
       (List.concat_map (lint_errors m) a.Pipeline.program.Cfg.funcs))

let test_checker_rejects_virtual () =
  let m = Machine.middle_pressure in
  let fn = Cfg.create_func ~name:"main" ~n_params:0 ~entry:0 in
  let v = Cfg.fresh_reg fn Reg.Int_class in
  let fn =
    Cfg.with_blocks fn
      [ { Cfg.label = 0; instrs = [| Cfg.instr fn (Instr.Ret (Some v)) |] } ]
  in
  check Alcotest.bool "rejected" true
    (List.exists
       (fun (d : Diagnostic.t) ->
         d.Diagnostic.reason = Diagnostic.Not_allocatable)
       (lint_errors m fn))

let test_checker_rejects_out_of_file () =
  let m = Machine.make ~k:8 () in
  let fn = Cfg.create_func ~name:"main" ~n_params:0 ~entry:0 in
  let r12 = Reg.phys Reg.Int_class 12 in
  let fn =
    Cfg.with_blocks fn
      [ { Cfg.label = 0; instrs = [| Cfg.instr fn (Instr.Ret (Some r12)) |] } ]
  in
  check Alcotest.bool "rejected" true
    (List.exists
       (fun (d : Diagnostic.t) ->
         d.Diagnostic.reason = Diagnostic.Not_allocatable)
       (lint_errors m fn))

(* Static cost ------------------------------------------------------------ *)

let test_static_cost_weighted () =
  let fn, _, _, _, body, _ = counted_loop () in
  let cost = Static_cost.func fn in
  (* Loop-body instructions are weighted 10x. *)
  let body_cost =
    List.fold_left
      (fun acc i -> acc + Costs.inst_cost i.Instr.kind)
      0
      (Array.to_list (Cfg.block fn body).Cfg.instrs)
  in
  check Alcotest.bool "cost includes weighted body" true
    (cost >= 10 * body_cost)

let prop_static_cost_positive =
  qcheck ~count:25 "static cost is positive" seed_gen (fun seed ->
      let p = random_program seed in
      List.for_all (fun fn -> Static_cost.func fn > 0) p.Cfg.funcs)

let () =
  Alcotest.run "sim"
    [
      ( "interp",
        [
          tc "integer arithmetic" test_arith;
          tc "division by zero is total" test_division_by_zero_total;
          tc "float ops" test_float_ops;
          tc "memory" test_memory;
          tc "branches and loops" test_branches_and_loop;
          tc "calls and params" test_calls_and_params;
          tc "spill slots" test_spill_reload_slots;
          tc "fuel" test_out_of_fuel;
          tc "cycle accounting" test_cycle_accounting;
          tc "limited fixups" test_limited_fixup_dynamic;
          tc "paired-load fusion" test_paired_load_fusion_dynamic;
          tc "volatile registers poisoned after a call"
            test_volatile_poisoned_after_call;
        ] );
      ( "finalize",
        [
          tc "drops coalesced moves" test_finalize_drops_same_color_moves;
          tc "callee saves" test_finalize_callee_saves;
          tc "caller saves preserve semantics"
            test_finalize_caller_saves_semantics;
          tc "caller-save layout" test_finalize_caller_save_layout;
        ] );
      ( "check",
        [
          tc "accepts machine code" test_checker_accepts_machine_code;
          tc "rejects virtual registers" test_checker_rejects_virtual;
          tc "rejects out-of-file registers" test_checker_rejects_out_of_file;
        ] );
      ( "static cost",
        [ tc "loop weighting" test_static_cost_weighted; prop_static_cost_positive ] );
    ]
