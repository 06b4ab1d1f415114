(* SSA construction and destruction tests. *)

open Helpers

let count_phis fn =
  Cfg.fold_instrs fn
    (fun acc _ i ->
      match i.Instr.kind with Instr.Phi _ -> acc + 1 | _ -> acc)
    0

let count_defs fn r =
  Cfg.fold_instrs fn
    (fun acc _ i ->
      if List.exists (Reg.equal r) (Instr.defs i.Instr.kind) then acc + 1
      else acc)
    0

let test_construct_diamond () =
  let fn, _, _, _ = diamond () in
  let ssa = Ssa_construct.run fn in
  check Alcotest.bool "valid" true (Result.is_ok (Cfg.validate ssa));
  (* x is redefined in both arms and live at the join: exactly one phi. *)
  check Alcotest.int "one phi" 1 (count_phis ssa);
  (* Every virtual register now has a single definition. *)
  Reg.Set.iter
    (fun r ->
      check Alcotest.int
        (Printf.sprintf "single def of %s" (Reg.to_string r))
        1 (count_defs ssa r))
    (Cfg.all_vregs ssa)

let test_construct_loop () =
  let fn, _, _, header, _, _ = counted_loop () in
  let ssa = Ssa_construct.run fn in
  check Alcotest.bool "valid" true (Result.is_ok (Cfg.validate ssa));
  (* acc and i both need a phi at the loop header. *)
  let header_phis =
    List.length
      (List.filter
         (fun i ->
           match i.Instr.kind with Instr.Phi _ -> true | _ -> false)
         (Array.to_list (Cfg.block ssa header).Cfg.instrs))
  in
  check Alcotest.int "two phis at header" 2 header_phis

let test_construct_straightline_no_phis () =
  let fn, _, _, _, _ = straightline () in
  let ssa = Ssa_construct.run fn in
  check Alcotest.int "no phis" 0 (count_phis ssa)

let test_destruct_removes_phis () =
  let fn, _, _, _ = diamond () in
  let out = Ssa_destruct.run (Ssa_construct.run fn) in
  check Alcotest.int "no phis left" 0 (count_phis out);
  check Alcotest.bool "valid" true (Result.is_ok (Cfg.validate out))

let test_roundtrip_semantics_diamond () =
  let fn, _, _, _ = diamond () in
  (* diamond takes abstract params; the interpreter feeds them. *)
  let p = { Cfg.funcs = [ fn ]; main = fn.Cfg.name } in
  let args = [ Interp.Int 3; Interp.Int 9 ] in
  let before = Interp.run ~args p in
  let fn' = Ssa_destruct.run (Ssa_construct.run fn) in
  let after = Interp.run ~args { p with Cfg.funcs = [ fn' ] } in
  check Alcotest.bool "same result" true
    (Interp.equal_value before.Interp.value after.Interp.value)

let test_roundtrip_semantics_loop () =
  let fn, _, _, _, _, _ = counted_loop ~trip:7 () in
  let p = { Cfg.funcs = [ fn ]; main = fn.Cfg.name } in
  let before = Interp.run p in
  let fn' = Ssa_destruct.run (Ssa_construct.run fn) in
  let after = Interp.run { p with Cfg.funcs = [ fn' ] } in
  check Alcotest.bool "same result" true
    (Interp.equal_value before.Interp.value after.Interp.value);
  check Alcotest.bool "result is 21" true
    (Interp.equal_value before.Interp.value (Some (Interp.Int 21)))

let prop_roundtrip_preserves_semantics =
  qcheck ~count:40 "SSA round trip preserves program results" seed_gen
    (fun seed ->
      let p = random_program seed in
      let before = Interp.run p in
      let funcs =
        List.map
          (fun f -> Ssa_destruct.run (Ssa_construct.run f))
          p.Cfg.funcs
      in
      let after = Interp.run { p with Cfg.funcs } in
      Interp.equal_value before.Interp.value after.Interp.value)

let prop_construct_single_def =
  qcheck ~count:25 "SSA form has a single definition per register"
    seed_gen (fun seed ->
      let p = random_program seed in
      List.for_all
        (fun fn ->
          let ssa = Ssa_construct.run fn in
          Reg.Set.for_all
            (fun r -> count_defs ssa r <= 1)
            (Cfg.all_vregs ssa))
        p.Cfg.funcs)

let prop_destruct_no_critical_edges =
  qcheck ~count:25 "destruction leaves no critical edges with copies"
    seed_gen (fun seed ->
      let p = random_program seed in
      List.for_all
        (fun fn ->
          let out = Ssa_destruct.run (Ssa_construct.run fn) in
          Result.is_ok (Cfg.validate out) && count_phis out = 0)
        p.Cfg.funcs)

(* Phis are placed in the compact numbering's order, which shifting
   every virtual id by a constant leaves alone: construction commutes
   with the shift. *)
let test_construct_follows_numbering () =
  let funcs =
    List.concat_map (fun (_, p) -> p.Cfg.funcs) (Suite.all ())
    @ List.concat_map
        (fun seed -> (random_program seed).Cfg.funcs)
        (List.init 20 Fun.id)
  in
  List.iter
    (fun f ->
      List.iter
        (fun offset ->
          check Alcotest.string
            (Printf.sprintf "%s, ids shifted by %d" f.Cfg.name offset)
            (body_text (shift_vregs offset (Ssa_construct.run f)))
            (body_text (Ssa_construct.run (shift_vregs offset f))))
        [ 1; 1000 ])
    funcs

let test_destruct_splits_critical_edge () =
  (* Hand-built CFG with a critical edge (L0 -> L2: L0 branches, L2
     joins) and a terminator-only join block.  Construction must weave
     a phi into the single-instruction join; destruction must split
     the edge with a fresh jump-only block and weave the copy in front
     of its terminator. *)
  let fn = Cfg.create_func ~name:"crit" ~n_params:0 ~entry:0 in
  let x = Cfg.fresh_reg fn Reg.Int_class in
  let c = Cfg.fresh_reg fn Reg.Int_class in
  let l1 = Cfg.fresh_label fn in
  let l2 = Cfg.fresh_label fn in
  let fn =
    Cfg.with_blocks fn
      [
        Cfg.mk_block 0
          [|
            Cfg.instr fn (Instr.Const { dst = x; value = 10L });
            Cfg.instr fn (Instr.Const { dst = c; value = 0L });
            Cfg.instr fn (Instr.Branch { cond = c; ifso = l1; ifnot = l2 });
          |];
        Cfg.mk_block l1
          [|
            Cfg.instr fn (Instr.Const { dst = x; value = 20L });
            Cfg.instr fn (Instr.Jump l2);
          |];
        Cfg.mk_block l2 [| Cfg.instr fn (Instr.Ret (Some x)) |];
      ]
  in
  let p = { Cfg.funcs = [ fn ]; main = fn.Cfg.name } in
  let before = Interp.run p in
  let ssa = Ssa_construct.run fn in
  check Alcotest.int "phi in terminator-only join" 1 (count_phis ssa);
  let out = Ssa_destruct.run ssa in
  check Alcotest.bool "valid" true (Result.is_ok (Cfg.validate out));
  check Alcotest.int "no phis left" 0 (count_phis out);
  check Alcotest.bool "critical edge split" true
    (List.length out.Cfg.blocks > 3);
  let after = Interp.run { p with Cfg.funcs = [ out ] } in
  check Alcotest.bool "same result" true
    (Interp.equal_value before.Interp.value after.Interp.value);
  check Alcotest.bool "result is 10" true
    (Interp.equal_value before.Interp.value (Some (Interp.Int 10)))

(* Parallel-copy sequentialization -------------------------------------- *)

let run_copies copies env0 =
  (* Reference semantics: apply the parallel copy atomically. *)
  let counter = ref 1000 in
  let fresh r =
    incr counter;
    ignore r;
    Reg.first_virtual + !counter
  in
  let seq = Ssa_destruct.sequentialize ~fresh copies in
  let env = Hashtbl.copy env0 in
  List.iter
    (fun (d, s) ->
      let value = try Hashtbl.find env s with Not_found -> 0 in
      Hashtbl.replace env d value)
    seq;
  env

let v i = Reg.first_virtual + i

let test_sequentialize_simple () =
  let env0 = Hashtbl.create 4 in
  Hashtbl.replace env0 (v 1) 10;
  Hashtbl.replace env0 (v 2) 20;
  let env = run_copies [ (v 3, v 1); (v 4, v 2) ] env0 in
  check Alcotest.int "v3" 10 (Hashtbl.find env (v 3));
  check Alcotest.int "v4" 20 (Hashtbl.find env (v 4))

let test_sequentialize_chain () =
  (* a <- b, b <- c : must read c's old value into b after b was copied. *)
  let env0 = Hashtbl.create 4 in
  Hashtbl.replace env0 (v 2) 2;
  Hashtbl.replace env0 (v 3) 3;
  let env = run_copies [ (v 1, v 2); (v 2, v 3) ] env0 in
  check Alcotest.int "v1 gets old v2" 2 (Hashtbl.find env (v 1));
  check Alcotest.int "v2 gets old v3" 3 (Hashtbl.find env (v 2))

let test_sequentialize_swap () =
  let env0 = Hashtbl.create 4 in
  Hashtbl.replace env0 (v 1) 1;
  Hashtbl.replace env0 (v 2) 2;
  let env = run_copies [ (v 1, v 2); (v 2, v 1) ] env0 in
  check Alcotest.int "v1 swapped" 2 (Hashtbl.find env (v 1));
  check Alcotest.int "v2 swapped" 1 (Hashtbl.find env (v 2))

let test_sequentialize_cycle3 () =
  let env0 = Hashtbl.create 4 in
  List.iteri (fun i x -> Hashtbl.replace env0 (v (i + 1)) x) [ 10; 20; 30 ];
  let env = run_copies [ (v 1, v 2); (v 2, v 3); (v 3, v 1) ] env0 in
  check Alcotest.int "v1" 20 (Hashtbl.find env (v 1));
  check Alcotest.int "v2" 30 (Hashtbl.find env (v 2));
  check Alcotest.int "v3" 10 (Hashtbl.find env (v 3))

let test_sequentialize_self () =
  let env0 = Hashtbl.create 4 in
  Hashtbl.replace env0 (v 1) 5;
  let counter = ref 0 in
  let fresh _ =
    incr counter;
    v 99
  in
  let seq = Ssa_destruct.sequentialize ~fresh [ (v 1, v 1) ] in
  check Alcotest.int "self copy dropped" 0 (List.length seq);
  check Alcotest.int "no temp needed" 0 !counter

let test_sequentialize_cycle_with_tail () =
  (* A swap cycle with a chain copy hanging off it: the cycle breaks
     through a temp, and the tail copy must still read the pre-swap
     value of v1. *)
  let env0 = Hashtbl.create 4 in
  List.iteri (fun i x -> Hashtbl.replace env0 (v (i + 1)) x) [ 1; 2 ];
  let env = run_copies [ (v 1, v 2); (v 2, v 1); (v 3, v 1) ] env0 in
  check Alcotest.int "v1 swapped" 2 (Hashtbl.find env (v 1));
  check Alcotest.int "v2 swapped" 1 (Hashtbl.find env (v 2));
  check Alcotest.int "v3 reads old v1" 1 (Hashtbl.find env (v 3))

let prop_sequentialize_matches_parallel =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 6)
        (pair (int_range 0 5) (int_range 0 5)))
  in
  qcheck ~count:300 "sequentialize = atomic parallel copy" gen (fun pairs ->
      (* Destinations must be distinct. *)
      let copies =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) pairs
        |> List.map (fun (d, s) -> (v d, v s))
      in
      let env0 = Hashtbl.create 8 in
      for i = 0 to 5 do
        Hashtbl.replace env0 (v i) (100 + i)
      done;
      let got = run_copies copies env0 in
      List.for_all
        (fun (d, s) -> Hashtbl.find got d = Hashtbl.find env0 s)
        copies)

let () =
  Alcotest.run "ssa"
    [
      ( "construct",
        [
          tc "diamond phi placement" test_construct_diamond;
          tc "loop phi placement" test_construct_loop;
          tc "straightline has no phis" test_construct_straightline_no_phis;
          tc "phi order follows the numbering" test_construct_follows_numbering;
          prop_construct_single_def;
        ] );
      ( "destruct",
        [
          tc "removes phis" test_destruct_removes_phis;
          tc "splits critical edge, tiny blocks" test_destruct_splits_critical_edge;
          tc "diamond semantics" test_roundtrip_semantics_diamond;
          tc "loop semantics" test_roundtrip_semantics_loop;
          prop_roundtrip_preserves_semantics;
          prop_destruct_no_critical_edges;
        ] );
      ( "parallel copies",
        [
          tc "independent" test_sequentialize_simple;
          tc "chain" test_sequentialize_chain;
          tc "swap" test_sequentialize_swap;
          tc "three-cycle" test_sequentialize_cycle3;
          tc "cycle with tail copy" test_sequentialize_cycle_with_tail;
          tc "self copy" test_sequentialize_self;
          prop_sequentialize_matches_parallel;
        ] );
    ]
