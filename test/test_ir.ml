(* Unit tests for the IR substrate: registers, instructions, CFG,
   builder. *)

open Helpers

let test_phys_encoding () =
  let r = Reg.phys Reg.Int_class 5 in
  check Alcotest.bool "phys" true (Reg.is_phys r);
  check Alcotest.int "index" 5 (Reg.phys_index r);
  check Alcotest.bool "class" true (Reg.phys_cls r = Reg.Int_class);
  let f = Reg.phys Reg.Float_class 5 in
  check Alcotest.bool "distinct files" false (Reg.equal r f);
  check Alcotest.int "float index" 5 (Reg.phys_index f);
  check Alcotest.bool "float class" true (Reg.phys_cls f = Reg.Float_class)

let test_phys_bounds () =
  Alcotest.check_raises "negative" (Invalid_argument "Reg.phys: index -1 out of range")
    (fun () -> ignore (Reg.phys Reg.Int_class (-1)));
  Alcotest.check_raises "too large"
    (Invalid_argument
       (Printf.sprintf "Reg.phys: index %d out of range" Reg.max_phys))
    (fun () -> ignore (Reg.phys Reg.Int_class Reg.max_phys))

let test_virtual_boundary () =
  check Alcotest.bool "first virtual" true (Reg.is_virtual Reg.first_virtual);
  check Alcotest.bool "below boundary" false
    (Reg.is_virtual (Reg.first_virtual - 1))

let test_to_string () =
  check Alcotest.string "int phys" "r3" (Reg.to_string (Reg.phys Reg.Int_class 3));
  check Alcotest.string "float phys" "f7"
    (Reg.to_string (Reg.phys Reg.Float_class 7));
  check Alcotest.string "virtual" "v0" (Reg.to_string Reg.first_virtual)

let v i = Reg.first_virtual + i

let test_defs_uses () =
  let cases =
    [
      (Instr.Move { dst = v 0; src = v 1 }, [ v 0 ], [ v 1 ]);
      (Instr.Const { dst = v 0; value = 3L }, [ v 0 ], []);
      ( Instr.Binop { op = Instr.Add; dst = v 0; src1 = v 1; src2 = v 2 },
        [ v 0 ],
        [ v 1; v 2 ] );
      (Instr.Load { dst = v 0; base = v 1; offset = 8 }, [ v 0 ], [ v 1 ]);
      (Instr.Store { src = v 0; base = v 1; offset = 8 }, [], [ v 0; v 1 ]);
      ( Instr.Call { dst = Some (v 0); callee = "f"; args = [ v 1; v 2 ] },
        [ v 0 ],
        [ v 1; v 2 ] );
      (Instr.Call { dst = None; callee = "f"; args = [] }, [], []);
      (Instr.Spill { src = v 0; slot = 1 }, [], [ v 0 ]);
      (Instr.Reload { dst = v 0; slot = 1 }, [ v 0 ], []);
      (Instr.Ret (Some (v 3)), [], [ v 3 ]);
      (Instr.Ret None, [], []);
      (Instr.Jump 4, [], []);
      ( Instr.Branch { cond = v 5; ifso = 1; ifnot = 2 },
        [],
        [ v 5 ] );
      (Instr.Limited { dst = v 0; src = v 1 }, [ v 0 ], [ v 1 ]);
      (Instr.Param { dst = v 0; index = 0 }, [ v 0 ], []);
    ]
  in
  List.iter
    (fun (kind, defs, uses) ->
      check
        (Alcotest.list reg_testable)
        (Format.asprintf "defs of %a" Instr.pp_kind kind)
        defs (Instr.defs kind);
      check
        (Alcotest.list reg_testable)
        (Format.asprintf "uses of %a" Instr.pp_kind kind)
        uses (Instr.uses kind))
    cases

let test_phi_defs_uses () =
  let phi = Instr.Phi { dst = v 0; srcs = [ (1, v 1); (2, v 2) ] } in
  check (Alcotest.list reg_testable) "phi defs" [ v 0 ] (Instr.defs phi);
  check (Alcotest.list reg_testable) "phi uses" [ v 1; v 2 ] (Instr.uses phi);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int reg_testable))
    "phi srcs" [ (1, v 1); (2, v 2) ] (Instr.phi_srcs phi);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int reg_testable))
    "non-phi srcs" []
    (Instr.phi_srcs (Instr.Jump 0))

let test_terminators () =
  check Alcotest.bool "jump" true (Instr.is_terminator (Instr.Jump 0));
  check Alcotest.bool "branch" true
    (Instr.is_terminator (Instr.Branch { cond = v 0; ifso = 0; ifnot = 1 }));
  check Alcotest.bool "ret" true (Instr.is_terminator (Instr.Ret None));
  check Alcotest.bool "move" false
    (Instr.is_terminator (Instr.Move { dst = v 0; src = v 1 }));
  check (Alcotest.list Alcotest.int) "branch succs" [ 3; 4 ]
    (Instr.successors (Instr.Branch { cond = v 0; ifso = 3; ifnot = 4 }));
  check (Alcotest.list Alcotest.int) "ret succs" []
    (Instr.successors (Instr.Ret None))

let test_map_regs () =
  let shift r = r + 100 in
  let kind = Instr.Binop { op = Instr.Add; dst = v 0; src1 = v 1; src2 = v 2 } in
  (match Instr.map_regs shift kind with
  | Instr.Binop { dst; src1; src2; _ } ->
      check reg_testable "dst" (v 0 + 100) dst;
      check reg_testable "src1" (v 1 + 100) src1;
      check reg_testable "src2" (v 2 + 100) src2
  | _ -> Alcotest.fail "shape");
  (match Instr.map_uses shift kind with
  | Instr.Binop { dst; src1; _ } ->
      check reg_testable "dst untouched" (v 0) dst;
      check reg_testable "src shifted" (v 1 + 100) src1
  | _ -> Alcotest.fail "shape");
  match Instr.map_defs shift kind with
  | Instr.Binop { dst; src1; _ } ->
      check reg_testable "dst shifted" (v 0 + 100) dst;
      check reg_testable "src untouched" (v 1) src1
  | _ -> Alcotest.fail "shape"

let test_builder_straightline () =
  let fn, _, _, _, _ = straightline () in
  check Alcotest.int "blocks" 1 (List.length fn.Cfg.blocks);
  check Alcotest.bool "valid" true (Result.is_ok (Cfg.validate fn));
  check Alcotest.int "instrs" 5
    (Cfg.fold_instrs fn (fun a _ _ -> a + 1) 0)

let test_builder_diamond () =
  let fn, _, _, _ = diamond () in
  check Alcotest.int "blocks" 4 (List.length fn.Cfg.blocks);
  check Alcotest.bool "valid" true (Result.is_ok (Cfg.validate fn));
  let preds = Cfg.predecessors fn in
  let join =
    List.find
      (fun (b : Cfg.block) ->
        match (Cfg.terminator b).Instr.kind with
        | Instr.Ret _ -> true
        | _ -> false)
      fn.Cfg.blocks
  in
  check Alcotest.int "join preds" 2
    (List.length preds.(join.Cfg.label))

let test_successors_preds () =
  let fn, _, _, header, body, exit = counted_loop () in
  let hdr = Cfg.block fn header in
  check (Alcotest.list Alcotest.int) "header succs" [ body; exit ]
    (Cfg.successors hdr);
  let preds = Cfg.predecessors fn in
  let hdr_preds = List.sort compare preds.(header) in
  check (Alcotest.list Alcotest.int) "header preds"
    (List.sort compare [ fn.Cfg.entry; body ])
    hdr_preds

let test_reverse_postorder () =
  let fn, _, _, header, body, _ = counted_loop () in
  let rpo = Cfg.reverse_postorder fn in
  check Alcotest.int "entry first" fn.Cfg.entry (List.hd rpo);
  let pos l =
    let rec go i = function
      | [] -> Alcotest.failf "L%d missing from RPO" l
      | x :: _ when x = l -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 rpo
  in
  check Alcotest.bool "header before body" true (pos header < pos body)

let test_validate_rejects () =
  let fn = Cfg.create_func ~name:"bad" ~n_params:0 ~entry:0 in
  (* Block without terminator. *)
  let bad1 =
    Cfg.with_blocks fn
      [
        {
          Cfg.label = 0;
          instrs = [| Cfg.instr fn (Instr.Const { dst = v 0; value = 0L }) |];
        };
      ]
  in
  check Alcotest.bool "no terminator rejected" true
    (Result.is_error (Cfg.validate bad1));
  (* Branch to a missing block. *)
  let bad2 =
    Cfg.with_blocks fn
      [ { Cfg.label = 0; instrs = [| Cfg.instr fn (Instr.Jump 42) |] } ]
  in
  check Alcotest.bool "dangling target rejected" true
    (Result.is_error (Cfg.validate bad2));
  (* Terminator in the middle. *)
  let bad3 =
    Cfg.with_blocks fn
      [
        {
          Cfg.label = 0;
          instrs =
            [| Cfg.instr fn (Instr.Ret None); Cfg.instr fn (Instr.Ret None) |];
        };
      ]
  in
  check Alcotest.bool "mid-block terminator rejected" true
    (Result.is_error (Cfg.validate bad3))

let rejects name f =
  check Alcotest.bool name true
    (match f () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_mk_block_invariants () =
  let fn = Cfg.create_func ~name:"mk" ~n_params:0 ~entry:0 in
  let term () = Cfg.instr fn (Instr.Ret None) in
  let konst () = Cfg.instr fn (Instr.Const { dst = v 0; value = 1L }) in
  (* A terminator-only block is the smallest legal block. *)
  let b = Cfg.mk_block 0 [| term () |] in
  check Alcotest.int "terminator-only" 1 (Array.length b.Cfg.instrs);
  rejects "empty block" (fun () -> Cfg.mk_block 0 [||]);
  rejects "no terminator" (fun () -> Cfg.mk_block 0 [| konst () |]);
  rejects "mid-block terminator" (fun () ->
      Cfg.mk_block 0 [| term (); konst (); term () |])

let test_dense_numbering () =
  let fn, _, _, _, _ = straightline () in
  check Alcotest.int "n_instrs" 5 (Cfg.n_instrs fn);
  let k = ref 0 in
  Cfg.iter_instrs fn (fun _ i ->
      check Alcotest.int
        (Printf.sprintf "index of instr %d" i.Instr.id)
        !k (Cfg.instr_index fn i);
      incr k);
  rejects "absent instruction" (fun () ->
      Cfg.instr_index fn { Instr.id = 999_999; kind = Instr.Ret None });
  (* Body rewrites invalidate the cached numbering; the rebuilt one
     covers the new instructions. *)
  let fn2 = Cfg.map_instrs fn (fun i -> i.Instr.kind) in
  check Alcotest.int "renumbered size" 5 (Cfg.n_instrs fn2)

let test_validate_entry_first () =
  let fn = Cfg.create_func ~name:"wf" ~n_params:0 ~entry:1 in
  let blocks_entry_second =
    [
      Cfg.mk_block 0 [| Cfg.instr fn (Instr.Ret None) |];
      Cfg.mk_block 1 [| Cfg.instr fn (Instr.Jump 0) |];
    ]
  in
  let bad = Cfg.with_blocks fn blocks_entry_second in
  check Alcotest.bool "validate rejects entry-second" true
    (Result.is_error (Cfg.validate bad));
  let good = Cfg.with_blocks fn (List.rev blocks_entry_second) in
  check Alcotest.bool "validate accepts entry-first" true
    (Result.is_ok (Cfg.validate good))

let test_validate_missing_entry () =
  let fn = Cfg.create_func ~name:"bad" ~n_params:0 ~entry:0 in
  let bad =
    Cfg.with_blocks fn
      [ { Cfg.label = 1; instrs = [| Cfg.instr fn (Instr.Ret None) |] } ]
  in
  check Alcotest.bool "missing entry rejected" true
    (Result.is_error (Cfg.validate bad))

let test_clone_isolation () =
  let fn, _, _, _, _ = straightline () in
  let c = Cfg.clone fn in
  let before = fn.Cfg.next_reg in
  let _ = Cfg.fresh_reg c Reg.Int_class in
  check Alcotest.int "original counter untouched" before fn.Cfg.next_reg;
  check Alcotest.int "clone advanced" (before + 1) c.Cfg.next_reg

let test_all_vregs () =
  let fn, a, b, s, r = straightline () in
  let vs = Cfg.all_vregs fn in
  List.iter
    (fun x -> check Alcotest.bool (Reg.to_string x) true (Reg.Set.mem x vs))
    [ a; b; s; r ];
  check Alcotest.int "count" 4 (Reg.Set.cardinal vs)

let test_cls_of () =
  let fn = Cfg.create_func ~name:"c" ~n_params:0 ~entry:0 in
  let vi = Cfg.fresh_reg fn Reg.Int_class in
  let vf = Cfg.fresh_reg fn Reg.Float_class in
  check Alcotest.bool "int" true (Cfg.cls_of fn vi = Reg.Int_class);
  check Alcotest.bool "float" true (Cfg.cls_of fn vf = Reg.Float_class);
  check Alcotest.bool "phys int" true
    (Cfg.cls_of fn (Reg.phys Reg.Int_class 0) = Reg.Int_class)

let test_map_instrs () =
  let fn, _, _, _, _ = straightline () in
  let n = ref 0 in
  let fn2 =
    Cfg.map_instrs fn (fun i ->
        incr n;
        i.Instr.kind)
  in
  check Alcotest.int "visited all" 5 !n;
  check Alcotest.bool "still valid" true (Result.is_ok (Cfg.validate fn2))

let prop_map_regs_id =
  qcheck "map_regs id is id" seed_gen (fun seed ->
      let p = random_program seed in
      List.for_all
        (fun fn ->
          Cfg.fold_instrs fn
            (fun acc _ i -> acc && Instr.map_regs (fun r -> r) i.Instr.kind = i.Instr.kind)
            true)
        p.Cfg.funcs)

let prop_defs_uses_consistent =
  qcheck "map_uses touches exactly the uses" seed_gen (fun seed ->
      let p = random_program seed in
      List.for_all
        (fun fn ->
          Cfg.fold_instrs fn
            (fun acc _ i ->
              let kind = i.Instr.kind in
              let shifted = Instr.map_uses (fun r -> r + 1_000_000) kind in
              acc
              && List.length (Instr.uses shifted) = List.length (Instr.uses kind)
              && List.for_all (fun r -> r > 1_000_000) (Instr.uses shifted)
              && Instr.defs shifted = Instr.defs kind)
            true)
        p.Cfg.funcs)

let () =
  Alcotest.run "ir"
    [
      ( "reg",
        [
          tc "phys encoding" test_phys_encoding;
          tc "phys bounds" test_phys_bounds;
          tc "virtual boundary" test_virtual_boundary;
          tc "to_string" test_to_string;
        ] );
      ( "instr",
        [
          tc "defs and uses" test_defs_uses;
          tc "phi defs and uses" test_phi_defs_uses;
          tc "terminators" test_terminators;
          tc "map_regs" test_map_regs;
        ] );
      ( "cfg",
        [
          tc "builder straightline" test_builder_straightline;
          tc "builder diamond" test_builder_diamond;
          tc "successors and predecessors" test_successors_preds;
          tc "reverse postorder" test_reverse_postorder;
          tc "validate rejects malformed blocks" test_validate_rejects;
          tc "mk_block enforces block invariants" test_mk_block_invariants;
          tc "dense instruction numbering" test_dense_numbering;
          tc "validate requires entry first" test_validate_entry_first;
          tc "validate rejects missing entry" test_validate_missing_entry;
          tc "clone isolates metadata" test_clone_isolation;
          tc "all_vregs" test_all_vregs;
          tc "cls_of" test_cls_of;
          tc "map_instrs" test_map_instrs;
        ] );
      ("props", [ prop_map_regs_id; prop_defs_uses_consistent ]);
    ]
