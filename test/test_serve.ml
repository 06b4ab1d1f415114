(* Allocation-service tests: the body digest (cache addressing), the
   binary IR codec (round-trip properties), the cache (LRU with
   second-miss admission, against a list model) and the wire
   protocol.  The live daemon itself is exercised end-to-end by the
   @serve-smoke alias (test/serve_smoke.ml). *)

open Helpers

(* A program with every interesting feature: calls, floats, paired
   loads, limited ops, plus (after allocation at low k) spill code. *)
let rich_program seed =
  Gen.generate
    {
      Gen.default with
      Gen.name = "serve-rich";
      seed;
      n_funcs = 3;
      float_ratio = 0.4;
      paired_ratio = 0.5;
      limited_ratio = 0.3;
      pressure = 12;
    }

let allocated_funcs seed =
  (* Finalized functions contain Spill/Reload/Load_pair, the kinds a
     pre-allocation body never shows the codec. *)
  let m = Machine.make ~k:8 () in
  let p = Pipeline.prepare m (rich_program seed) in
  let a = Pipeline.allocate_program ~jobs:1 Pipeline.pdgc_full m p in
  (m, a)

(* ---- body digest -------------------------------------------------------- *)

let digest_hex f = Digest.to_hex (Cfg.body_digest f)

let test_digest_clone_invariant () =
  List.iter
    (fun (f : Cfg.func) ->
      check Alcotest.string ("clone " ^ f.Cfg.name) (digest_hex f)
        (digest_hex (Cfg.clone f)))
    (rich_program 7).Cfg.funcs

let test_digest_ignores_lazy_caches () =
  let f = List.hd (rich_program 8).Cfg.funcs in
  let before = digest_hex f in
  (* Force the dense-numbering cache and re-digest. *)
  let first_instr = (List.hd f.Cfg.blocks).Cfg.instrs.(0) in
  ignore (Cfg.instr_index f first_instr);
  check Alcotest.string "numbering cache is invisible" before (digest_hex f)

let test_digest_ignores_construction_history () =
  let build extra =
    let b = Builder.create ~name:"hist" ~n_params:2 in
    let x = Builder.reg b Reg.Int_class in
    let y = Builder.reg b Reg.Int_class in
    Builder.param b x 0;
    Builder.param b y 1;
    let s = Builder.binop b Instr.Add x y in
    Builder.ret b (Some s);
    (* Same body, different construction history: burn fresh names
       that never appear in an instruction. *)
    if extra then begin
      ignore (Builder.reg b Reg.Float_class);
      ignore (Builder.reg b Reg.Int_class)
    end;
    Builder.finish b
  in
  check Alcotest.string "unused fresh names are invisible"
    (digest_hex (build false))
    (digest_hex (build true));
  check Alcotest.string "function name is invisible"
    (digest_hex (build false))
    (digest_hex { (build false) with Cfg.name = "other" })

(* One structural edit at instruction position [target], leaving every
   other instruction alone.  Covers every constructor the IR has. *)
let perturb_kind (k : Instr.kind) : Instr.kind =
  match k with
  | Instr.Move { dst; src } -> Instr.Move { dst; src = src + 1 }
  | Instr.Const { dst; value } ->
      Instr.Const { dst; value = Int64.add value 1L }
  | Instr.Unop { op; dst; src } -> Instr.Unop { op; dst; src = src + 1 }
  | Instr.Binop { op; dst; src1; src2 } ->
      Instr.Binop { op; dst; src1; src2 = src2 + 1 }
  | Instr.Cmp { op; dst; src1; src2 } ->
      Instr.Cmp { op; dst; src1; src2 = src2 + 1 }
  | Instr.Load { dst; base; offset } ->
      Instr.Load { dst; base; offset = offset + 8 }
  | Instr.Load_pair { dst_lo; dst_hi; base; offset } ->
      Instr.Load_pair { dst_lo; dst_hi; base; offset = offset + 8 }
  | Instr.Store { src; base; offset } ->
      Instr.Store { src; base; offset = offset + 8 }
  | Instr.Limited { dst; src } -> Instr.Limited { dst; src = src + 1 }
  | Instr.Call { dst; callee; args } ->
      Instr.Call { dst; callee = callee ^ "'"; args }
  | Instr.Param { dst; index } -> Instr.Param { dst; index = index + 1 }
  | Instr.Spill { src; slot } -> Instr.Spill { src; slot = slot + 1 }
  | Instr.Reload { dst; slot } -> Instr.Reload { dst; slot = slot + 1 }
  | Instr.Jump l -> Instr.Jump (l + 1)
  | Instr.Branch { cond; ifso; ifnot } ->
      Instr.Branch { cond; ifso = ifso + 1; ifnot }
  | Instr.Ret None -> Instr.Ret (Some 0)
  | Instr.Ret (Some r) -> Instr.Ret (Some (r + 1))
  | Instr.Phi { dst; srcs } -> Instr.Phi { dst = dst + 1; srcs }

let edit_instr f target =
  let i = ref (-1) in
  Cfg.map_instrs f (fun instr ->
      incr i;
      if !i = target then perturb_kind instr.Instr.kind else instr.Instr.kind)

let test_digest_sees_every_instruction () =
  let _, a = allocated_funcs 9 in
  List.iter
    (fun (f : Cfg.func) ->
      let base = Cfg.body_digest f in
      let n =
        List.fold_left
          (fun n b -> n + Array.length b.Cfg.instrs)
          0 f.Cfg.blocks
      in
      for target = 0 to n - 1 do
        if Cfg.body_digest (edit_instr f target) = base then
          Alcotest.failf "%s: edit at instruction %d left the digest unchanged"
            f.Cfg.name target
      done)
    a.Pipeline.program.Cfg.funcs

(* ---- codec round trips -------------------------------------------------- *)

let cls_entries (f : Cfg.func) =
  List.rev (Cfg.Classes.fold (fun r c acc -> (r, c) :: acc) f.Cfg.reg_cls [])

let check_func_round_trip what (f : Cfg.func) =
  let enc = to_wire Codec.write_func f in
  let dec = of_wire Codec.read_func enc in
  check Alcotest.string (what ^ ": name") f.Cfg.name dec.Cfg.name;
  check Alcotest.int (what ^ ": n_params") f.Cfg.n_params dec.Cfg.n_params;
  check Alcotest.int (what ^ ": entry") f.Cfg.entry dec.Cfg.entry;
  check Alcotest.int (what ^ ": next_reg") f.Cfg.next_reg dec.Cfg.next_reg;
  check Alcotest.int (what ^ ": next_instr_id") f.Cfg.next_instr_id
    dec.Cfg.next_instr_id;
  check Alcotest.int (what ^ ": next_label") f.Cfg.next_label
    dec.Cfg.next_label;
  check Alcotest.bool (what ^ ": class table") true
    (cls_entries f = cls_entries dec);
  check Alcotest.bool (what ^ ": blocks") true
    (List.map (fun b -> (b.Cfg.label, Array.to_list b.Cfg.instrs)) f.Cfg.blocks
    = List.map
        (fun b -> (b.Cfg.label, Array.to_list b.Cfg.instrs))
        dec.Cfg.blocks);
  check Alcotest.string (what ^ ": byte-identical re-encode") enc
    (to_wire Codec.write_func dec);
  check Alcotest.string (what ^ ": digest survives the wire")
    (digest_hex f) (digest_hex dec)

let test_codec_suite () =
  List.iter
    (fun (name, p) ->
      let enc = to_wire Codec.write_program p in
      check Alcotest.string (name ^ ": program re-encode") enc
        (to_wire Codec.write_program (of_wire Codec.read_program enc));
      List.iter (check_func_round_trip name) p.Cfg.funcs)
    (Suite.all ())

let prop_codec_random_workload =
  qcheck ~count:25 "codec round-trips random workload programs" seed_gen
    (fun seed ->
      let p = Gen.generate (random_profile (Rng.create seed)) in
      let enc = to_wire Codec.write_program p in
      let dec = of_wire Codec.read_program enc in
      to_wire Codec.write_program dec = enc
      && List.for_all2
           (fun (f : Cfg.func) (d : Cfg.func) ->
             Cfg.body_digest f = Cfg.body_digest d
             && cls_entries f = cls_entries d)
           p.Cfg.funcs dec.Cfg.funcs)

let test_codec_spill_metadata () =
  (* Post-allocation bodies carry Spill/Reload (and possibly fused
     Load_pair); they must survive the wire like everything else. *)
  let _, a = allocated_funcs 11 in
  let spills =
    List.fold_left
      (fun n (f : Cfg.func) ->
        List.fold_left
          (fun n b ->
            Array.fold_left
              (fun n i ->
                match i.Instr.kind with
                | Instr.Spill _ | Instr.Reload _ -> n + 1
                | _ -> n)
              n b.Cfg.instrs)
          n f.Cfg.blocks)
      0 a.Pipeline.program.Cfg.funcs
  in
  check Alcotest.bool "the allocated program actually spills" true (spills > 0);
  List.iter (check_func_round_trip "allocated") a.Pipeline.program.Cfg.funcs;
  List.iter (check_func_round_trip "pre-finalize")
    (List.map (fun (r : Alloc_common.result) -> r.Alloc_common.func) a.Pipeline.results)

let test_codec_rejects_garbage () =
  let expect_error what thunk =
    match thunk () with
    | (_ : Cfg.func) -> Alcotest.failf "%s: malformed input decoded" what
    | exception Codec.Error _ -> ()
  in
  let f = List.hd (rich_program 3).Cfg.funcs in
  let enc = to_wire Codec.write_func f in
  expect_error "truncation" (fun () ->
      of_wire Codec.read_func (String.sub enc 0 (String.length enc / 2)));
  (* A payload decodes as a whole: bytes after its message make it
     malformed, so two different payloads are never one request. *)
  let trailing what payload =
    match Protocol.decode_request payload with
    | _ -> Alcotest.failf "%s: trailing bytes decoded" what
    | exception Protocol.Error msg ->
        check Alcotest.string what
          (Printf.sprintf "trailing garbage at offset %d"
             (String.length payload - 3))
          msg
  in
  trailing "stats request" "\002xyz";
  trailing "jess alloc request"
    (Protocol.encode_request
       (Protocol.Alloc
          {
            machine = Machine.middle_pressure;
            algo = "pdgc";
            program = Protocol.Binary (Suite.program "jess");
          })
    ^ "xyz");
  (* Bounds on what a frame can make the decoder allocate: a real
     function with one counter or id patched, then only decoded. *)
  let patched what g =
    expect_error what (fun () ->
        of_wire Codec.read_func (to_wire Codec.write_func g))
  in
  let over = Codec.max_counter + 1 in
  patched "next_reg above the bound" { (Cfg.clone f) with Cfg.next_reg = over };
  patched "next_instr_id above the bound"
    { (Cfg.clone f) with Cfg.next_instr_id = over };
  patched "next_label above the bound"
    { (Cfg.clone f) with Cfg.next_label = over };
  let v = List.hd (Reg.Set.elements (Cfg.all_vregs f)) in
  let rename_reg to_ =
    let g = Cfg.clone f in
    let sub r = if r = v then to_ else r in
    Cfg.map_instrs g (fun i ->
        Instr.map_defs sub (Instr.map_uses sub i.Instr.kind))
  in
  patched "negative register id" (rename_reg (-1));
  patched "register id at next_reg" (rename_reg f.Cfg.next_reg);
  let patch_first_block patch =
    let g = Cfg.clone f in
    match g.Cfg.blocks with
    | b :: rest -> Cfg.with_blocks g (patch b :: rest)
    | [] -> assert false
  in
  patched "instruction id at next_instr_id"
    (patch_first_block (fun b ->
         let instrs = Array.copy b.Cfg.instrs in
         instrs.(0) <- { (instrs.(0)) with Instr.id = f.Cfg.next_instr_id };
         { b with Cfg.instrs }));
  patched "label at next_label"
    (patch_first_block (fun b -> { b with Cfg.label = f.Cfg.next_label }));
  (* Ids in range but breaking what allocation assumes: the error names
     the problem instead of a crash downstream. *)
  let names_problem what problem g =
    match of_wire Codec.read_func (to_wire Codec.write_func g) with
    | _ -> Alcotest.failf "%s: malformed input decoded" what
    | exception Codec.Error msg ->
        check Alcotest.bool (what ^ ": " ^ msg) true (contains msg problem)
  in
  names_problem "duplicate instruction id" "duplicate instruction id"
    (patch_first_block (fun b ->
         let instrs = Array.copy b.Cfg.instrs in
         instrs.(1) <- { (instrs.(1)) with Instr.id = instrs.(0).Instr.id };
         { b with Cfg.instrs }));
  names_problem "register without a class" "has no class"
    (let g = rename_reg f.Cfg.next_reg in
     g.Cfg.next_reg <- f.Cfg.next_reg + 1;
     g);
  (* Well-encoded but malformed CFGs: a duplicated block and an entry
     block that is not first. *)
  let main = Cfg.find_func (Suite.program "jess") "main" in
  let l1 = List.find (fun (b : Cfg.block) -> b.Cfg.label = 1) main.Cfg.blocks in
  patched "duplicate label"
    (Cfg.with_blocks (Cfg.clone main) (main.Cfg.blocks @ [ l1 ]));
  (match main.Cfg.blocks with
  | entry :: second :: rest ->
      patched "entry block not first"
        (Cfg.with_blocks (Cfg.clone main) (second :: entry :: rest))
  | _ -> Alcotest.fail "jess main has fewer than two blocks");
  (* A count larger than the bytes after it: the class table claims a
     billion entries and the input ends. *)
  let buf = Buffer.create 16 in
  Codec.write_string buf "f";
  List.iter (Codec.write_int buf) [ 0; 0; 200; 10; 1; 1_000_000_000 ];
  expect_error "count past the input" (fun () ->
      of_wire Codec.read_func (Buffer.contents buf));
  (* The class table takes a byte per register up to the largest id it
     names, so it may name only virtual registers below
     [first_virtual + entries].  A one-block function with one class
     entry: the control decodes, the two patched entries must not. *)
  let ret_block =
    (* The blocks section of [L0: ret], cut from a real encoding. *)
    let g = Cfg.create_func ~name:"f" ~n_params:0 ~entry:0 in
    let g = Cfg.with_blocks g [ Cfg.mk_block 0 [| Cfg.instr g (Instr.Ret None) |] ] in
    let enc = to_wire Codec.write_func g in
    let header =
      Codec.string_size "f"
      + List.fold_left
          (fun n v -> n + Codec.int_size v)
          0
          [ 0; 0; g.Cfg.next_reg; g.Cfg.next_instr_id; g.Cfg.next_label; 0 ]
    in
    String.sub enc header (String.length enc - header)
  in
  let one_class reg =
    let buf = Buffer.create 16 in
    Codec.write_string buf "f";
    List.iter (Codec.write_int buf) [ 0; 0; Reg.first_virtual + 64; 1; 1; 1; reg ];
    Buffer.add_char buf '\000';
    Buffer.add_string buf ret_block;
    Buffer.contents buf
  in
  ignore (of_wire Codec.read_func (one_class Reg.first_virtual));
  expect_error "class entry for a physical register" (fun () ->
      of_wire Codec.read_func (one_class (Reg.first_virtual - 1)));
  expect_error "class entry past first_virtual + entries" (fun () ->
      of_wire Codec.read_func (one_class (Reg.first_virtual + 1)));
  (* Only finalization pairs loads, into physical registers.  An
     allocate request for [v1 = 0; v2, v3 = [v1 + 0]; ret v2 + v3] is
     rejected at decode, its error naming the instruction, not by webs
     mid-allocation. *)
  let g = Cfg.create_func ~name:"pair" ~n_params:0 ~entry:0 in
  let v1 = Cfg.fresh_reg g Reg.Int_class in
  let v2 = Cfg.fresh_reg g Reg.Int_class in
  let v3 = Cfg.fresh_reg g Reg.Int_class in
  let v4 = Cfg.fresh_reg g Reg.Int_class in
  let pair =
    Cfg.instr g
      (Instr.Load_pair { dst_lo = v2; dst_hi = v3; base = v1; offset = 0 })
  in
  let g =
    Cfg.with_blocks g
      [
        Cfg.mk_block 0
          [|
            Cfg.instr g (Instr.Const { dst = v1; value = 0L });
            pair;
            Cfg.instr g
              (Instr.Binop { op = Instr.Add; dst = v4; src1 = v2; src2 = v3 });
            Cfg.instr g (Instr.Ret (Some v4));
          |];
      ]
  in
  let payload =
    Protocol.encode_request
      (Protocol.Alloc
         {
           machine = Machine.middle_pressure;
           algo = "pdgc";
           program = Protocol.Binary { Cfg.funcs = [ g ]; main = "pair" };
         })
  in
  match Protocol.decode_request payload with
  | _ -> Alcotest.fail "virtual paired load: request decoded"
  | exception Codec.Error msg ->
      check Alcotest.bool
        ("virtual paired load: " ^ msg)
        true
        (contains msg (Format.asprintf "%a" Instr.pp pair))

(* Seeded mutants of the Suite's allocate requests (1-4 byte flips,
   byte sets or truncations each): a mutant decodes or is a protocol or
   codec error, and every function that decodes runs the daemon's
   pipeline (prepare, pdgc, finalize) without an unnamed crash: no
   [Not_found] from a class lookup, no duplicate-id [Invalid_argument]
   from the instruction numbering.  Other rejections, such as Lower's
   call with more arguments than argument registers, stay allowed. *)
let test_request_mutants () =
  let rs = Random.State.make [| 31 |] in
  let payloads =
    Array.of_list
      (List.map
         (fun (_, p) ->
           Protocol.encode_request
             (Protocol.Alloc
                {
                  machine = Machine.middle_pressure;
                  algo = "pdgc";
                  program = Protocol.Binary p;
                }))
         (Suite.all ()))
  in
  let mutate s =
    let b = Bytes.of_string s in
    let len = ref (Bytes.length b) in
    for _ = 0 to Random.State.int rs 4 do
      let i = Random.State.int rs !len in
      match Random.State.int rs 3 with
      | 0 ->
          let c = Char.code (Bytes.get b i) in
          Bytes.set b i (Char.chr (c lxor (1 lsl Random.State.int rs 8)))
      | 1 -> Bytes.set b i (Char.chr (Random.State.int rs 256))
      | _ -> len := max 1 i
    done;
    Bytes.sub_string b 0 !len
  in
  let decoded = ref 0 in
  for n = 1 to 2000 do
    match
      Protocol.decode_request
        (mutate payloads.(Random.State.int rs (Array.length payloads)))
    with
    | Protocol.Alloc { machine; program = Protocol.Binary p; _ } ->
        List.iter
          (fun f ->
            incr decoded;
            match
              Finalize.apply machine
                (Pdgc.allocate Pdgc.Full_preferences machine
                   (Pipeline.prepare_func machine f))
            with
            | _ -> ()
            | exception Not_found ->
                Alcotest.failf "mutant %d: Not_found allocating %s" n
                  f.Cfg.name
            | exception Invalid_argument msg when contains msg "Cfg.numbering"
              ->
                Alcotest.failf "mutant %d: %s" n msg
            | exception (Invalid_argument _ | Alloc_common.Failed _) -> ())
          p.Cfg.funcs
    | _ -> ()
    | exception (Protocol.Error _ | Codec.Error _) -> ()
  done;
  check Alcotest.bool "some mutants decode" true (!decoded > 0)

(* ---- func replies ------------------------------------------------------- *)

let test_func_reply_round_trip () =
  let m, a = allocated_funcs 13 in
  ignore m;
  List.iter2
    (fun (res : Alloc_common.result) (fin : Finalize.t) ->
      let blob = Protocol.encode_func_reply res fin in
      let r = Protocol.decode_func_reply blob in
      check Alcotest.int "rounds" res.Alloc_common.rounds r.Protocol.rounds;
      check Alcotest.int "spill_instrs" res.Alloc_common.spill_instrs
        r.Protocol.spill_instrs;
      check Alcotest.int "moves_eliminated" fin.Finalize.moves_eliminated
        r.Protocol.moves_eliminated;
      check Alcotest.int "caller_save_instrs" fin.Finalize.caller_save_instrs
        r.Protocol.caller_save_instrs;
      check Alcotest.bool "spill slots" true
        (res.Alloc_common.spill_slots = r.Protocol.spill_slots);
      check Alcotest.string "finalized body survives"
        (to_wire Codec.write_func fin.Finalize.func)
        (to_wire Codec.write_func r.Protocol.func))
    a.Pipeline.results a.Pipeline.finals

(* ---- wire protocol ------------------------------------------------------ *)

let test_protocol_round_trips () =
  let p = rich_program 5 in
  let reqs =
    [
      Protocol.Alloc
        {
          machine = Machine.make ~k:16 ();
          algo = "pdgc";
          program = Protocol.Binary p;
        };
      Protocol.Alloc
        {
          machine = Machine.make ~k:32 ();
          algo = "chaitin";
          program = Protocol.Text "fn main() { return 1; }";
        };
      Protocol.Stats;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      let rt = Protocol.decode_request (Protocol.encode_request req) in
      match (req, rt) with
      | ( Protocol.Alloc { machine; algo; program },
          Protocol.Alloc { machine = m'; algo = a'; program = p' } ) ->
          check Alcotest.bool "machine" true (machine = m');
          check Alcotest.string "algo" algo a';
          check Alcotest.bool "program" true
            (match (program, p') with
            | Protocol.Binary x, Protocol.Binary y ->
                to_wire Codec.write_program x = to_wire Codec.write_program y
            | Protocol.Text x, Protocol.Text y -> x = y
            | _ -> false)
      | Protocol.Stats, Protocol.Stats -> ()
      | Protocol.Shutdown, Protocol.Shutdown -> ()
      | _ -> Alcotest.fail "request changed shape on the wire")
    reqs;
  let stats =
    {
      Protocol.cache =
        {
          Cache.hits = 5;
          misses = 3;
          evictions = 1;
          entries = 2;
          capacity = 8;
          refused = 4;
        };
      funcs_served = 10;
      funcs_allocated = 4;
      requests_served = 6;
      batches = 3;
      pool_jobs = 2;
    }
  in
  (* [write_response] frames exactly [encode_response]'s payload. *)
  let framed resp =
    let rd, wr = Unix.pipe () in
    Fun.protect
      ~finally:(fun () ->
        Unix.close rd;
        Unix.close wr)
      (fun () ->
        Protocol.write_response wr resp;
        Protocol.read_frame rd)
  in
  List.iter
    (fun resp ->
      check Alcotest.bool "response round trip" true
        (Protocol.decode_response (Protocol.encode_response resp) = resp);
      check Alcotest.string "written frame" (Protocol.encode_response resp)
        (framed resp))
    [
      Protocol.Funcs [ "alpha"; ""; "gamma" ];
      (* multi-byte length and count varints *)
      Protocol.Funcs (String.make 300 'x' :: List.init 130 string_of_int);
      Protocol.Funcs [];
      Protocol.Stats_reply stats;
      Protocol.Shutdown_ack;
      (* status byte 255: must be read as a raw byte, not a varint *)
      Protocol.Error_reply "boom";
    ]

(* A request's machine passes [Machine.make]: a machine it rejects
   decodes to [Protocol.Error] carrying its message. *)
let test_protocol_rejects_bad_machines () =
  let base = Machine.make ~k:16 () in
  List.iter
    (fun (label, (m : Machine.t)) ->
      let expected =
        match
          Machine.make ~name:m.Machine.name ~n_volatile:m.Machine.n_volatile
            ~n_arg_regs:m.Machine.n_arg_regs ~ret_index:m.Machine.ret_index
            ~limited_size:m.Machine.limited_size ~pair_rule:m.Machine.pair_rule
            ~k:m.Machine.k ()
        with
        | _ -> Alcotest.failf "%s: Machine.make accepted it" label
        | exception Invalid_argument msg -> msg
      in
      let payload =
        Protocol.encode_request
          (Protocol.Alloc
             {
               machine = m;
               algo = "pdgc";
               program = Protocol.Text "fn main() { return 1; }";
             })
      in
      match Protocol.decode_request payload with
      | _ -> Alcotest.failf "%s: request decoded" label
      | exception Protocol.Error msg -> check Alcotest.string label expected msg)
    [
      ("k = 0", { base with Machine.k = 0 });
      ("k = 3", { base with Machine.k = 3 });
      ("k = 64", { base with Machine.k = 64 });
      ("n_volatile > k", { base with Machine.n_volatile = base.Machine.k + 4 });
      ("limited_size = 0", { base with Machine.limited_size = 0 });
      ("ret_index = -1", { base with Machine.ret_index = -1 });
    ]

(* ---- LRU cache ---------------------------------------------------------- *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  check Alcotest.bool "hit a" true (Cache.find c "a" = Some 1);
  (* c's first add is refused while the cache is full; its second is
     admitted and evicts b, now coldest, not a *)
  Cache.add c "c" 3;
  check Alcotest.bool "c refused once" false (Cache.mem c "c");
  Cache.add c "c" 3;
  check Alcotest.bool "b evicted" true (Cache.find c "b" = None);
  check Alcotest.bool "a kept" true (Cache.find c "a" = Some 1);
  check Alcotest.bool "c kept" true (Cache.find c "c" = Some 3);
  let s = Cache.stats c in
  check Alcotest.int "hits" 3 s.Cache.hits;
  check Alcotest.int "misses" 1 s.Cache.misses;
  check Alcotest.int "evictions" 1 s.Cache.evictions;
  check Alcotest.int "entries" 2 s.Cache.entries;
  check Alcotest.int "capacity" 2 s.Cache.capacity;
  check Alcotest.int "refused" 1 s.Cache.refused

let test_cache_replace_and_mem () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "k" 1;
  Cache.add c "k" 2;
  check Alcotest.bool "replaced in place" true (Cache.find c "k" = Some 2);
  let s = Cache.stats c in
  check Alcotest.int "no eviction on replace" 0 s.Cache.evictions;
  check Alcotest.int "one entry" 1 s.Cache.entries;
  check Alcotest.bool "mem is uncounted" true (Cache.mem c "k");
  check Alcotest.int "mem did not count" (Cache.stats c).Cache.hits s.Cache.hits

let test_cache_unbounded () =
  let c = Cache.create ~capacity:0 in
  for i = 0 to 999 do
    Cache.add c (string_of_int i) i
  done;
  let s = Cache.stats c in
  check Alcotest.int "no evictions" 0 s.Cache.evictions;
  check Alcotest.int "everything kept" 1000 s.Cache.entries;
  check Alcotest.bool "oldest still present" true (Cache.find c "0" = Some 0)

(* Random find / add / mem sequences over a few keys at small
   capacities, checked after every step against [Ref_cache]: each
   returned value, every stats field and which keys are cached. *)
type cache_op = Find of int | Add of int * int | Mem of int

let cache_keys = List.init 6 (Printf.sprintf "k%d")

let print_cache_case (capacity, ops) =
  Printf.sprintf "capacity %d: %s" capacity
    (String.concat "; "
       (List.map
          (function
            | Find k -> Printf.sprintf "find k%d" k
            | Add (k, v) -> Printf.sprintf "add k%d %d" k v
            | Mem k -> Printf.sprintf "mem k%d" k)
          ops))

let prop_cache_model =
  let op =
    QCheck2.Gen.(
      let key = int_range 0 5 in
      oneof
        [
          map (fun k -> Find k) key;
          map2 (fun k v -> Add (k, v)) key small_nat;
          map (fun k -> Mem k) key;
        ])
  in
  qcheck ~count:500 ~print:print_cache_case "matches the LRU + ghost model"
    QCheck2.Gen.(pair (int_range 0 3) (list_size (int_range 0 60) op))
    (fun (capacity, ops) ->
      let c = Cache.create ~capacity and r = Ref_cache.create capacity in
      List.for_all
        (fun op ->
          let key k = List.nth cache_keys k in
          (match op with
          | Find k -> Cache.find c (key k) = Ref_cache.find r (key k)
          | Mem k -> Cache.mem c (key k) = Ref_cache.mem r (key k)
          | Add (k, v) ->
              Cache.add c (key k) v;
              Ref_cache.add r (key k) v;
              true)
          && Cache.stats c = Ref_cache.stats r
          && List.for_all (fun k -> Cache.mem c k = Ref_cache.mem r k) cache_keys)
        ops)

(* The request shape the admission policy is for, as perfbench's
   daemon-zipf draws it: Zipf(1.3) over 4,096 programs through 512
   entries, 3,000 warm-up requests, then 50,000 counted; each request
   is a find and, on a miss, an add. *)
let zipf_stream ~seed ~n =
  let keys = 4096 and skew = 1.3 in
  let cdf = Array.make keys 0. and total = ref 0. in
  for i = 0 to keys - 1 do
    total := !total +. (1. /. (float_of_int (i + 1) ** skew));
    cdf.(i) <- !total
  done;
  let r = Rng.create seed in
  Array.init n (fun _ ->
      let x = float_of_int (Rng.int r (1 lsl 30)) /. float_of_int (1 lsl 30) *. !total in
      let lo = ref 0 and hi = ref (keys - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) < x then lo := mid + 1 else hi := mid
      done;
      Printf.sprintf "p%d" !lo)

let test_cache_zipf () =
  let warmup = 3000 in
  let stream = zipf_stream ~seed:1 ~n:(warmup + 50_000) in
  let counted_hits find add =
    let hits = ref 0 in
    Array.iteri
      (fun i key ->
        match find key with
        | Some () -> if i >= warmup then incr hits
        | None -> add key ())
      stream;
    !hits
  in
  let c = Cache.create ~capacity:512 in
  let hits = counted_hits (Cache.find c) (Cache.add c) in
  let model = Ref_cache.create 512 in
  let lru = Ref_cache.create ~plain_lru:true 512 in
  check Alcotest.int "model hits" hits
    (counted_hits (Ref_cache.find model) (Ref_cache.add model));
  let lru_hits = counted_hits (Ref_cache.find lru) (Ref_cache.add lru) in
  check Alcotest.bool "more hits than plain LRU" true (hits > lru_hits);
  check Alcotest.int "hits" 46106 hits;
  check Alcotest.int "plain-LRU hits" 45239 lru_hits

let () =
  Alcotest.run "serve"
    [
      ( "digest",
        [
          tc "clone invariant" test_digest_clone_invariant;
          tc "lazy caches invisible" test_digest_ignores_lazy_caches;
          tc "construction history invisible"
            test_digest_ignores_construction_history;
          tc "every instruction observed" test_digest_sees_every_instruction;
        ] );
      ( "codec",
        [
          tc "generated suite round-trips" test_codec_suite;
          prop_codec_random_workload;
          tc "spill metadata round-trips" test_codec_spill_metadata;
          tc "garbage rejected" test_codec_rejects_garbage;
          tc "request mutants decode or fail cleanly" test_request_mutants;
        ] );
      ( "protocol",
        [
          tc "func replies round-trip" test_func_reply_round_trip;
          tc "requests and responses round-trip" test_protocol_round_trips;
          tc "machines Machine.make rejects" test_protocol_rejects_bad_machines;
        ] );
      ( "cache",
        [
          tc "lru eviction and counters" test_cache_lru;
          tc "replace and mem" test_cache_replace_and_mem;
          tc "unbounded capacity" test_cache_unbounded;
          prop_cache_model;
          tc "zipf stream: more hits than plain LRU" test_cache_zipf;
        ] );
    ]
