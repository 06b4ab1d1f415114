(* Allocator registry: round-trip lookup, registration order, duplicate
   rejection, clean unknown-key behaviour, the golden output digest of
   every registered allocator, and its independence from register ids. *)

open Helpers

(* Registration happens at Pipeline module init; referencing the module
   guarantees it ran before any registry query. *)
let () = ignore Pipeline.all_algos

let expected_names =
  [
    "chaitin"; "briggs"; "optimistic"; "iterated"; "pdgc-co"; "pdgc";
    "lueh-gross"; "priority";
  ]

let test_names_in_paper_order () =
  check
    Alcotest.(list string)
    "registry lists the eight built-ins in paper order" expected_names
    (Allocator.names ())

let test_round_trip () =
  List.iter
    (fun a ->
      match Allocator.find a.Allocator.name with
      | Some b ->
          check Alcotest.string
            ("find " ^ a.Allocator.name ^ " resolves to itself")
            a.Allocator.name b.Allocator.name;
          check Alcotest.string "label survives the round trip"
            a.Allocator.label b.Allocator.label
      | None -> Alcotest.fail (a.Allocator.name ^ " does not resolve"))
    (Allocator.all ())

let test_duplicate_rejected () =
  match Allocator.register Pipeline.chaitin_base with
  | () -> Alcotest.fail "duplicate registration was accepted"
  | exception Invalid_argument _ ->
      (* The failed attempt must not have corrupted the registry. *)
      check
        Alcotest.(list string)
        "registry unchanged after rejected duplicate" expected_names
        (Allocator.names ())

let test_unknown_is_none () =
  check Alcotest.bool "unknown key is a clean None" true
    (Allocator.find "no-such-allocator" = None)

let test_exec () =
  (* [Allocator.exec] runs the allocator on one function. *)
  let m = Machine.middle_pressure in
  let fn = Pipeline.prepare_func m (fst (Fig7.build ())) in
  let res = Allocator.exec Pipeline.chaitin_base m fn in
  assert_valid_allocation m res

(* Golden outputs: per allocator, the MD5 of the concatenated
   [Protocol.encode_func_reply] blobs over an input set.  A failed
   allocation contributes its message instead, so the digest pins
   failures too.  Any change to an allocator's output, however small,
   changes its digest.

   Two input sets: 12 random programs (seeds 1000..1011) at k = 8 and
   16, and the seven suite programs at k = 8, whose large functions
   keep the spill heuristics busy for many blocked steps per round.
   The suite is pinned again at k = 24 and k = 32, the register files
   the paper's figures (and perfbench's suite-pdgc workload) run. *)
let golden_inputs =
  lazy
    (List.concat_map
       (fun k ->
         let m = Machine.make ~k () in
         List.init 12 (fun i ->
             let prof = random_profile (Rng.create (1000 + i)) in
             let p = Gen.generate prof in
             (m, Pipeline.prepare m p)))
       [ 8; 16 ])

let suite_inputs k =
  lazy
    (let m = Machine.make ~k () in
     List.map (fun (_, p) -> (m, Pipeline.prepare m p)) (Suite.all ()))

let golden_digest inputs (a : Allocator.t) =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (m, (p : Cfg.program)) ->
      List.iter
        (fun f ->
          match Allocator.exec a m (Cfg.clone f) with
          | res ->
              Buffer.add_string buf
                (Protocol.encode_func_reply res (Finalize.apply m res))
          | exception Alloc_common.Failed msg ->
              Buffer.add_string buf ("failed: " ^ msg ^ "\n"))
        p.Cfg.funcs)
    (Lazy.force inputs);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden =
  [
    ("chaitin", "7c30ea459996f3298c9af8489f50b059");
    ("briggs", "6b6f4f2956d200906dc0b6784c0787c6");
    ("optimistic", "37c4df4eacc7f2d753d702280fa90d15");
    ("iterated", "5e17f19d1b8d2bb7502809336c911e5b");
    ("pdgc-co", "ecabb8c2b555c721ad69817386e604a3");
    ("pdgc", "7d5f9fa430698ec5e0f885a5d36c46f7");
    ("lueh-gross", "93e94a2ff08f43168f8b4d73b292f5f1");
    ("priority", "aab3edc3d2fe3da6dbad24e1328ff3f5");
  ]

let suite_golden =
  [
    ("chaitin", "5ec04271e03c7320b6432af442a4d65c");
    ("briggs", "f6a59517f5af32257139085009a3c6f9");
    ("optimistic", "0c1a9356e67316a5701ae5f090d994b2");
    ("iterated", "3c376237b2fa5b33216c32bb4e9e2971");
    ("pdgc-co", "23a2baa39971b532967f3b601e93e998");
    ("pdgc", "3f69226a32ba834e531a5f8ceb057acf");
    ("lueh-gross", "3e38ed1247337d6d5badd6612263c385");
    ("priority", "338f6c0c4560bf784f5015e86142e9ab");
  ]

let suite_golden_24 =
  [
    ("chaitin", "161442b79da0b9d3bd73c9c93c1473a5");
    ("briggs", "ecefaf06973ddb4900b2e46e67d8c763");
    ("optimistic", "d3e62acbb5619369f06163f7ab999eb2");
    ("iterated", "63c30f0bd4295fa613b929f2d4d47e6e");
    ("pdgc-co", "790b0b94b234665de9eeeae4539b4101");
    ("pdgc", "a974924c70e1f7ed752cf40aa1563462");
    ("lueh-gross", "9d58827a5b96b705fc76f8fd838dbceb");
    ("priority", "7015fdd86ec748217e3e6ecfbf36d496");
  ]

let suite_golden_32 =
  [
    ("chaitin", "997e80138948c253b507c00923357d28");
    ("briggs", "82c7a0a89232b984ef759a4e810e6544");
    ("optimistic", "52be7f056e83ffb2ef5754a51c8374cc");
    ("iterated", "756d97eb0b7d6dd997a7064fd1543452");
    ("pdgc-co", "b8fc2e2996f9dc2c7d0c013675721e54");
    ("pdgc", "4322a76b4f067d24518a54f76bfd820e");
    ("lueh-gross", "faa1fb5ba5a26a48adc79efb0c34702f");
    ("priority", "9371e9c796aa3a27b87eee9518f579a1");
  ]

let test_golden inputs name digest () =
  let a = Option.get (Allocator.find name) in
  check Alcotest.string (name ^ " output digest") digest
    (golden_digest inputs a)

(* Canonical orders: allocation output is a function of the body, not
   of the register ids that name its values or of their hashes.  Every
   allocator must give the same finalized code and spill counts when
   every virtual id of a prepared function is shifted by a constant
   ({!Helpers.shift_vregs}), which keeps every numbering and every
   id-sorted order. *)
let outcome m (a : Allocator.t) f =
  match Allocator.exec a m f with
  | res ->
      let fin = Finalize.apply m res in
      Ok
        ( body_text fin.Finalize.func,
          [
            res.Alloc_common.rounds;
            res.Alloc_common.spill_instrs;
            List.length res.Alloc_common.spill_slots;
            fin.Finalize.moves_kept;
            fin.Finalize.caller_save_instrs;
          ] )
  | exception Alloc_common.Failed _ -> Error ()

let renaming_inputs =
  lazy (Lazy.force golden_inputs @ Lazy.force (suite_inputs 16))

let test_renaming name () =
  let a = Option.get (Allocator.find name) in
  List.iter
    (fun (m, (p : Cfg.program)) ->
      List.iter
        (fun f ->
          let base = outcome m a (Cfg.clone f) in
          List.iter
            (fun offset ->
              if outcome m a (shift_vregs offset f) <> base then
                Alcotest.failf "%s on %s: ids shifted by %d change the output"
                  name f.Cfg.name offset)
            [ 1; 1000 ])
        p.Cfg.funcs)
    (Lazy.force renaming_inputs)

let () =
  Alcotest.run "registry"
    [
      ( "registry",
        [
          tc "names in paper order" test_names_in_paper_order;
          tc "round trip" test_round_trip;
          tc "duplicate rejected" test_duplicate_rejected;
          tc "unknown key" test_unknown_is_none;
          tc "exec one function" test_exec;
        ] );
      ( "golden",
        List.map
          (fun (name, digest) ->
            tc ("output of " ^ name) (test_golden golden_inputs name digest))
          golden
        @ List.concat_map
            (fun (k, pins) ->
              let inputs = suite_inputs k in
              List.map
                (fun (name, digest) ->
                  tc
                    (Printf.sprintf "suite output of %s at k=%d" name k)
                    (test_golden inputs name digest))
                pins)
            [ (8, suite_golden); (24, suite_golden_24); (32, suite_golden_32) ]
        );
      ( "renaming",
        List.map
          (fun name -> tc ("output of " ^ name) (test_renaming name))
          expected_names );
    ]
