(* Allocator registry: round-trip lookup, registration order, duplicate
   rejection, clean unknown-key behaviour, and the golden output digest
   of every registered allocator. *)

open Helpers

(* Registration happens at Pipeline module init; referencing the module
   guarantees it ran before any registry query. *)
let () = ignore Pipeline.algos

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
  let fn, _ = Fig7.build () in
  let res = Allocator.exec Pipeline.chaitin_base m (Cfg.clone fn) in
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
             let prof = Gen.random_profile (Rng.create (1000 + i)) in
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
    ("chaitin", "2de6aa671df691de5b7fb1ee2ac51072");
    ("briggs", "1860b509a75745cbb549362c4ac2ebb9");
    ("optimistic", "32d06153caed0c0cdd3ceb295e3afc0f");
    ("iterated", "0044f3a24cf207306726fa62e6aabfa6");
    ("pdgc-co", "f20adcd89454c0ffb71ecc5d306efad2");
    ("pdgc", "8c1a0d65159c94e4be1b7f11f1d31e18");
    ("lueh-gross", "553e16d9b7f85032a633e4ad016cd76f");
    ("priority", "35999e7a531fb0044ae206374dc32640");
  ]

let suite_golden =
  [
    ("chaitin", "e5c98f41697245800ab524a74c247b02");
    ("briggs", "7cd366774eff5885f4311443c616a9ce");
    ("optimistic", "c0b8bb65ba8caa8c9f3edb58a6f9808b");
    ("iterated", "609498276615e6b352c1ecf6cbc64a67");
    ("pdgc-co", "4a65c78b25ebc923a9bedc0b30be9f9f");
    ("pdgc", "1081b78492607e6b3edfb8529c072e92");
    ("lueh-gross", "6e009d2354b79cddc4a07b6526fd91a0");
    ("priority", "29d5de450771fad117824240367dd798");
  ]

let suite_golden_24 =
  [
    ("chaitin", "d6f0f266d5d5bde3b2b0aebd01993e39");
    ("briggs", "9fca36b174fe294acf3d89a5cb5963e4");
    ("optimistic", "68d1b03e25f1dc9aedf775c910de5364");
    ("iterated", "38a0c721481808f64b7b7eefdf321ffe");
    ("pdgc-co", "5b81def5f7addfde2a07e9623e6c35f5");
    ("pdgc", "084dca794ad9d03f91d9ccef291f416c");
    ("lueh-gross", "464caa1a51e4adc76f215235bcaf1f3d");
    ("priority", "8ae6204e5e1037ebfdc2aec5a2bbba1f");
  ]

let suite_golden_32 =
  [
    ("chaitin", "454a42b699df549669ec2a47b2e9a1e2");
    ("briggs", "265b472cda78ece2868761cd63727e9b");
    ("optimistic", "7c58a0a02068f94fc7a2abdf2b7c36ae");
    ("iterated", "aea51f880440552aa49942670f31de6f");
    ("pdgc-co", "705aa492112fd96cd6005996e63aa193");
    ("pdgc", "15f9c23c7485335e939ba9e5ae13efde");
    ("lueh-gross", "0ad3c85b51b0ac96ac98b5688132d59e");
    ("priority", "768d1b446bba6fdc9edf91b22e886a8a");
  ]

let test_golden inputs name digest () =
  let a = Option.get (Allocator.find name) in
  check Alcotest.string (name ^ " output digest") digest
    (golden_digest inputs a)

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
    ]
