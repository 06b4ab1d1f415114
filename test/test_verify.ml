(* Static allocation verifier: negative cases that must be rejected and
   a positive sweep over every allocator on the workload suite. *)

open Helpers

let m8 = Machine.make ~k:8 ()
let r cls i = Reg.phys cls i
let ri = r Reg.Int_class

let has_error reason ds =
  List.exists
    (fun (d : Diagnostic.t) ->
      d.Diagnostic.severity = Diagnostic.Error && d.Diagnostic.reason = reason)
    ds

let no_errors name ds =
  if Diagnostic.errors ds <> [] then
    Alcotest.failf "%s: unexpected verification errors:@.%a" name
      Diagnostic.report (Diagnostic.errors ds)

(* Apply an allocation to every instruction, preserving instruction ids:
   a finalization with no copy elimination, fusion or save insertion. *)
let rename pairs (fn : Cfg.func) =
  let tbl = Reg.Tbl.create 8 in
  List.iter (fun (v, c) -> Reg.Tbl.replace tbl v c) pairs;
  let assign x = if Reg.is_phys x then x else Reg.Tbl.find tbl x in
  let final =
    Cfg.map_instrs (Cfg.clone fn) (fun i -> Instr.map_regs assign i.Instr.kind)
  in
  (tbl, final)

let delete_trivial_moves (fn : Cfg.func) =
  Cfg.with_blocks fn
    (List.map
       (fun (bk : Cfg.block) ->
         {
           bk with
           Cfg.instrs =
             Array.of_list
               (List.filter
                  (fun (i : Instr.t) ->
                    match i.Instr.kind with
                    | Instr.Move { dst; src } -> not (Reg.equal dst src)
                    | _ -> true)
                  (Array.to_list bk.Cfg.instrs));
         })
       fn.Cfg.blocks)

(* Fuse every adjacent load pair, keeping the first load's id — exactly
   what [Finalize.apply] does, minus the pairing-rule guard. *)
let fuse_adjacent (fn : Cfg.func) =
  Cfg.with_blocks fn
    (List.map
       (fun (bk : Cfg.block) ->
         let rec go = function
           | ({ Instr.kind = Instr.Load { dst = d1; base; offset }; _ } as i1)
             :: { Instr.kind = Instr.Load { dst = d2; _ }; _ }
             :: rest ->
               {
                 i1 with
                 Instr.kind =
                   Instr.Load_pair { dst_lo = d1; dst_hi = d2; base; offset };
               }
               :: go rest
           | i :: rest -> i :: go rest
           | [] -> []
         in
         {
           bk with
           Cfg.instrs = Array.of_list (go (Array.to_list bk.Cfg.instrs));
         })
       fn.Cfg.blocks)

(* --- negative cases --------------------------------------------------- *)

let clobber_func () =
  let b = Builder.create ~name:"clobber" ~n_params:0 in
  let a = Builder.iconst b 1 in
  let c = Builder.iconst b 2 in
  let s = Builder.binop b Instr.Add a c in
  Builder.ret b (Some s);
  (Builder.finish b, a, c, s)

let test_rejects_clobbered_live_range () =
  let reference, a, c, s = clobber_func () in
  (* [a] and [c] interfere but share r1: the add reads a clobbered value. *)
  let alloc, final = rename [ (a, ri 1); (c, ri 1); (s, ri 0) ] reference in
  let ds = Verify.func m8 ~reference ~alloc ~spill_slots:[] ~final in
  Alcotest.(check bool)
    "clobber rejected" true
    (has_error Diagnostic.Clobbered_value ds)

let test_accepts_correct_renaming () =
  let reference, a, c, s = clobber_func () in
  let alloc, final = rename [ (a, ri 1); (c, ri 2); (s, ri 0) ] reference in
  no_errors "correct renaming"
    (Verify.func m8 ~reference ~alloc ~spill_slots:[] ~final)

let test_rejects_wrong_spill_slot () =
  let b = Builder.create ~name:"slots" ~n_params:0 in
  let a = Builder.iconst b 7 in
  Builder.emit b (Instr.Spill { src = a; slot = 0 });
  let c = Builder.reg b Reg.Int_class in
  Builder.emit b (Instr.Reload { dst = c; slot = 0 });
  Builder.ret b (Some c);
  let reference = Builder.finish b in
  let alloc, final = rename [ (a, ri 1); (c, ri 0) ] reference in
  let final =
    Cfg.map_instrs final (fun i ->
        match i.Instr.kind with
        | Instr.Reload { dst; slot = 0 } -> Instr.Reload { dst; slot = 1 }
        | k -> k)
  in
  let ds = Verify.func m8 ~reference ~alloc ~spill_slots:[ (a, 0) ] ~final in
  Alcotest.(check bool)
    "wrong slot rejected" true
    (has_error Diagnostic.Slot_mismatch ds)

let test_rejects_volatile_across_call () =
  let b = Builder.create ~name:"volcall" ~n_params:0 in
  let v = Builder.iconst b 5 in
  let d = Builder.call b "leaf" [] in
  let s = Builder.binop b Instr.Add v d in
  Builder.ret b (Some s);
  let reference = Builder.finish b in
  (* [v] lives across the call in caller-save r3 with no save/restore. *)
  let alloc, final =
    rename [ (v, ri 3); (d, ri 0); (s, ri 0) ] reference
  in
  let ds = Verify.func m8 ~reference ~alloc ~spill_slots:[] ~final in
  Alcotest.(check bool)
    "volatile-across-call rejected" true
    (has_error Diagnostic.Volatile_across_call ds)

(* Copying a clobbered value is no error, but reading the copy is: the
   clobber travels with it, kept (r5) or deleted as trivial (r3). *)
let test_rejects_copy_of_clobbered_value () =
  let b = Builder.create ~name:"volcopy" ~n_params:0 in
  let v = Builder.iconst b 5 in
  let d = Builder.call b "leaf" [] in
  let y = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:y ~src:v;
  let s = Builder.binop b Instr.Add y d in
  Builder.ret b (Some s);
  let reference = Builder.finish b in
  List.iter
    (fun cy ->
      let pairs = [ (v, ri 3); (y, cy); (d, ri 0); (s, ri 0) ] in
      let alloc, final = rename pairs reference in
      let final = delete_trivial_moves final in
      Alcotest.(check bool) (Reg.to_string cy ^ " copy rejected") true
        (has_error Diagnostic.Volatile_across_call
           (Verify.func m8 ~reference ~alloc ~spill_slots:[] ~final)))
    [ ri 5; ri 3 ]

let pair_func () =
  let b = Builder.create ~name:"pairs" ~n_params:0 in
  let base = Builder.iconst b 100 in
  let lo = Builder.load b ~base ~offset:0 () in
  let hi = Builder.load b ~base ~offset:8 () in
  let s = Builder.binop b Instr.Add lo hi in
  Builder.ret b (Some s);
  (Builder.finish b, base, lo, hi, s)

let test_rejects_parity_violating_pair () =
  let reference, base, lo, hi, s = pair_func () in
  (* r2/r4 have equal parity: the pairing rule rejects them. *)
  let alloc, final =
    rename [ (base, ri 1); (lo, ri 2); (hi, ri 4); (s, ri 0) ] reference
  in
  let final = fuse_adjacent final in
  let ds = Verify.func m8 ~reference ~alloc ~spill_slots:[] ~final in
  Alcotest.(check bool)
    "parity violation rejected" true
    (has_error Diagnostic.Bad_pair ds)

let test_accepts_legal_pair () =
  let reference, base, lo, hi, s = pair_func () in
  let alloc, final =
    rename [ (base, ri 1); (lo, ri 2); (hi, ri 3); (s, ri 0) ] reference
  in
  let final = fuse_adjacent final in
  no_errors "legal pair"
    (Verify.func m8 ~reference ~alloc ~spill_slots:[] ~final)

let test_rejects_unsaved_callee_save () =
  let b = Builder.create ~name:"nonvol" ~n_params:0 in
  let v = Builder.iconst b 3 in
  Builder.ret b (Some v);
  let reference = Builder.finish b in
  (* Writes non-volatile r4 and returns without restoring it. *)
  let alloc, final = rename [ (v, ri 4) ] reference in
  let ds = Verify.func m8 ~reference ~alloc ~spill_slots:[] ~final in
  Alcotest.(check bool)
    "missing callee save rejected" true
    (has_error Diagnostic.Bad_callee_save ds);
  Alcotest.(check bool)
    "return register also audited" true
    (has_error Diagnostic.Bad_calling_convention ds)

let test_accepts_deleted_copy_with_live_source () =
  (* x and its copy y share r1; both stay live after the deleted move —
     the location legitimately holds both names at once. *)
  let b = Builder.create ~name:"alias" ~n_params:0 in
  let x = Builder.iconst b 1 in
  let y = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:y ~src:x;
  let s = Builder.binop b Instr.Add y x in
  Builder.ret b (Some s);
  let reference = Builder.finish b in
  let alloc, final = rename [ (x, ri 1); (y, ri 1); (s, ri 0) ] reference in
  let final = delete_trivial_moves final in
  no_errors "aliased deleted copy"
    (Verify.func m8 ~reference ~alloc ~spill_slots:[] ~final)

let test_rejects_duplicate_slot_metadata () =
  let reference, a, c, s = clobber_func () in
  let alloc, final = rename [ (a, ri 1); (c, ri 2); (s, ri 0) ] reference in
  let ds =
    Verify.func m8 ~reference ~alloc ~spill_slots:[ (a, 0); (c, 0) ] ~final
  in
  Alcotest.(check bool)
    "double-booked slot rejected" true
    (has_error Diagnostic.Slot_mismatch ds)

(* A body returning [r] is left as is by finalization; however many
   layers look at it, an unallocatable register is one diagnostic. *)
let not_allocatable_once r () =
  let b = Builder.create ~name:"ret" ~n_params:0 in
  let r = match r with Some r -> r | None -> Builder.reg b Reg.Int_class in
  Builder.ret b (Some r);
  let fn = Builder.finish b in
  let ds =
    Verify.func m8 ~reference:fn ~alloc:(Reg.Tbl.create 0) ~spill_slots:[]
      ~final:fn
  in
  Alcotest.(check int)
    "one not-allocatable error" 1
    (List.length
       (List.filter
          (fun (d : Diagnostic.t) ->
            d.Diagnostic.reason = Diagnostic.Not_allocatable)
          (Diagnostic.errors ds)))

(* --- linter ----------------------------------------------------------- *)

let test_lint_phases () =
  let b = Builder.create ~name:"redef" ~n_params:0 in
  let x = Builder.iconst b 1 in
  Builder.emit b (Instr.Binop { op = Instr.Add; dst = x; src1 = x; src2 = x });
  Builder.ret b (Some x);
  let fn = Builder.finish b in
  Alcotest.(check bool)
    "double def flagged under SSA" true
    (has_error Diagnostic.Structure (Lint.func Lint.Ssa fn));
  Alcotest.(check bool)
    "double def fine after SSA" true
    (Diagnostic.errors (Lint.func Lint.Prepared fn) = []);
  Alcotest.(check bool)
    "virtuals flagged as machine code" true
    (has_error Diagnostic.Not_allocatable (Lint.func (Lint.Machine m8) fn))

let test_lint_rejects_entry_not_first () =
  (* The whole pipeline keeps the entry block first, and passes
     (builder, numbering, block-order traversals) rely on it. *)
  let fn = Cfg.create_func ~name:"entry2nd" ~n_params:0 ~entry:1 in
  let bad =
    Cfg.with_blocks fn
      [
        Cfg.mk_block 0 [| Cfg.instr fn (Instr.Ret None) |];
        Cfg.mk_block 1 [| Cfg.instr fn (Instr.Jump 0) |];
      ]
  in
  Alcotest.(check bool)
    "entry-not-first flagged" true
    (has_error Diagnostic.Structure (Lint.func Lint.Prepared bad))

let test_lint_missing_entry_once () =
  (* One fault, one diagnostic: the entry rules live in [Cfg.validate]
     alone. *)
  let fn = Cfg.create_func ~name:"noentry" ~n_params:0 ~entry:0 in
  let bad =
    Cfg.with_blocks fn [ Cfg.mk_block 1 [| Cfg.instr fn (Instr.Ret None) |] ]
  in
  Alcotest.(check int)
    "one structure diagnostic" 1
    (List.length
       (List.filter
          (fun (d : Diagnostic.t) -> d.Diagnostic.reason = Diagnostic.Structure)
          (Lint.func Lint.Prepared bad)))

(* --- regressions -------------------------------------------------------- *)

(* A never-read copy right after a call, whose source was also the
   call's argument register: both share that caller-save register, so
   finalization deletes the copy and saves nothing across the call.
   The copy reads a clobbered value but is not a real use.  [j] picks
   the benchmark's seeded variant: the profile seed plus 7919·j. *)
let dead_copy_after_call name j func () =
  let p = Suite.profile name and m = Machine.make ~k:16 () in
  let prog = Gen.generate { p with Gen.seed = p.Gen.seed + (7919 * j) } in
  let prog = Pipeline.prepare m prog in
  check Alcotest.bool (func ^ " present") true
    (List.exists (fun (f : Cfg.func) -> f.Cfg.name = func) prog.Cfg.funcs);
  List.iter
    (fun (algo : Allocator.t) ->
      no_errors algo.Allocator.name
        (Pipeline.verify_allocated (Pipeline.allocate_program algo m prog)))
    Pipeline.all_algos

(* --- positive sweep --------------------------------------------------- *)

let sweep name k =
  let m = Machine.make ~k () in
  let p = Pipeline.prepare m (Suite.program name) in
  List.iter
    (fun (algo : Allocator.t) ->
      no_errors
        (Printf.sprintf "%s %s" name algo.Allocator.name)
        (Pipeline.verify_allocated (Pipeline.allocate_program algo m p)))
    Pipeline.all_algos

let test_sweep_jess () = sweep "jess" 16
let test_sweep_compress () = sweep "compress" 16
let test_sweep_mpegaudio () = sweep "mpegaudio" 24
let test_sweep_javac () = sweep "javac" 16
let test_sweep_db () = sweep "db" 32
let test_sweep_mtrt () = sweep "mtrt" 24
let test_sweep_jack () = sweep "jack" 16

let test_random_programs_verify () =
  List.iter
    (fun seed ->
      let m = Machine.make ~k:16 () in
      let p = prepared_random_program ~m seed in
      List.iter
        (fun algo ->
          no_errors
            (Printf.sprintf "%s seed %d" algo.Allocator.name seed)
            (Pipeline.verify_allocated (Pipeline.allocate_program algo m p)))
        [ Pipeline.chaitin_base; Pipeline.pdgc_full ])
    [ 11; 42; 1234; 9876 ]

let () =
  Alcotest.run "verify"
    [
      ( "negative",
        [
          tc "clobbered live range" test_rejects_clobbered_live_range;
          tc "wrong spill slot" test_rejects_wrong_spill_slot;
          tc "volatile across call" test_rejects_volatile_across_call;
          tc "copy of clobbered value" test_rejects_copy_of_clobbered_value;
          tc "parity-violating pair" test_rejects_parity_violating_pair;
          tc "missing callee save" test_rejects_unsaved_callee_save;
          tc "duplicate slot metadata" test_rejects_duplicate_slot_metadata;
          tc "virtual return reported once" (not_allocatable_once None);
          tc "r12 return at k=8 reported once"
            (not_allocatable_once (Some (ri 12)));
          tc "entry block not first" test_lint_rejects_entry_not_first;
          tc "missing entry reported once" test_lint_missing_entry_once;
        ] );
      ( "positive",
        [
          tc "correct renaming" test_accepts_correct_renaming;
          tc "legal fused pair" test_accepts_legal_pair;
          tc "aliased deleted copy" test_accepts_deleted_copy_with_live_source;
          tc "lint phases" test_lint_phases;
          tc "random programs verify" test_random_programs_verify;
        ] );
      ( "regression",
        [
          tc "jess v2 jess_f3 k=16" (dead_copy_after_call "jess" 2 "jess_f3");
          tc "db v7 db_f1 k=16" (dead_copy_after_call "db" 7 "db_f1");
        ] );
      ( "sweep",
        [
          tc "jess k=16" test_sweep_jess;
          tc "compress k=16" test_sweep_compress;
          tc "mpegaudio k=24" test_sweep_mpegaudio;
          tc "javac k=16" test_sweep_javac;
          tc "db k=32" test_sweep_db;
          tc "mtrt k=24" test_sweep_mtrt;
          tc "jack k=16" test_sweep_jack;
        ] );
    ]
