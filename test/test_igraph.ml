(* Interference graph tests. *)

open Helpers

let build_graph fn =
  let live = Liveness.compute fn in
  Igraph.build fn live

let test_straightline_edges () =
  let fn, a, b, s, r = straightline () in
  let g = build_graph fn in
  (* a and b coexist; s and a coexist (mul uses both); r conflicts with
     nothing later. *)
  check Alcotest.bool "a-b interfere" true (Igraph.interferes g a b);
  check Alcotest.bool "s-a interfere" true (Igraph.interferes g s a);
  check Alcotest.bool "s-b do not" false (Igraph.interferes g s b);
  check Alcotest.bool "r isolated" true (Reg.Set.is_empty (adj g r));
  check Alcotest.bool "no self edges" false (Igraph.interferes g a a)

let test_move_exemption () =
  (* x = p; both live after (p used again): still interfere.  But for
     y = p with p dead after, no edge. *)
  let b = Builder.create ~name:"mv" ~n_params:1 in
  let p = Builder.reg b Reg.Int_class in
  Builder.param b p 0;
  let x = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:x ~src:p;
  let y = Builder.binop b Instr.Add x p in
  (* p dead after this add *)
  let z = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:z ~src:y;
  Builder.ret b (Some z);
  let fn = Builder.finish b in
  let g = build_graph fn in
  (* Chaitin rule: the copy x = p does not make x interfere with p even
     though p is live out of it. *)
  check Alcotest.bool "copy source exempt" false (Igraph.interferes g x p);
  check Alcotest.bool "copy z/y exempt" false (Igraph.interferes g z y);
  check Alcotest.bool "x-y interfere (y defined while x... )" false
    (Igraph.interferes g z p)

let test_moves_recorded () =
  let fn, _, _, x = diamond () in
  let g = build_graph fn in
  let moves = Igraph.moves g in
  (* diamond contains exactly one virtual-virtual copy: x = p0. *)
  check Alcotest.int "one move" 1 (List.length moves);
  let mv = List.hd moves in
  check reg_testable "move dst" x mv.Igraph.dst

let test_degree_matches_adj () =
  let fn, _, _, _, _ = straightline () in
  let g = build_graph fn in
  List.iter
    (fun r ->
      check Alcotest.int
        (Printf.sprintf "degree of %s" (Reg.to_string r))
        (Reg.Set.cardinal (adj g r))
        (Igraph.degree g r))
    (Igraph.vnodes g)

let test_phys_infinite_degree () =
  let fn, _ = Fig7.build () in
  let g = build_graph fn in
  check Alcotest.int "phys degree" Igraph.infinite_degree
    (Igraph.degree g (Reg.phys Reg.Int_class 0))

let test_merge_unions_adjacency () =
  let fn, a, b, s, _ = straightline () in
  let g = build_graph fn in
  (* a and s interfere with each other... merge b into s (they don't
     interfere). *)
  check Alcotest.bool "b-s free" false (Igraph.interferes g s b);
  let expected = Reg.Set.remove s (Reg.Set.union (adj g s) (adj g b)) in
  Igraph.merge g ~keep:s ~drop:b;
  check reg_testable "alias resolves" s (Igraph.alias g b);
  check reg_set_testable "adjacency union" expected (adj g b);
  check Alcotest.bool "merged interferes with a" true (Igraph.interferes g b a)

let test_merge_rejects_interfering () =
  let fn, a, b, _, _ = straightline () in
  let g = build_graph fn in
  Alcotest.check_raises "interfering merge rejected"
    (Invalid_argument "Igraph.merge: nodes interfere") (fun () ->
      Igraph.merge g ~keep:a ~drop:b)

let test_merge_into_phys () =
  let fn, regs = Fig7.build () in
  let webs = Webs.run fn in
  let fn = webs.Webs.func in
  let g = build_graph fn in
  let web_of orig =
    Reg.Tbl.fold
      (fun w o acc -> if Reg.equal o orig then w else acc)
      webs.Webs.origin orig
  in
  let v3 = web_of regs.Fig7.v3 in
  let r0 = Reg.phys Reg.Int_class 0 in
  check Alcotest.bool "v3 and arg0 compatible" false (Igraph.interferes g v3 r0);
  Igraph.merge g ~keep:r0 ~drop:v3;
  check reg_testable "v3 aliases r0" r0 (Igraph.alias g v3);
  check Alcotest.bool "v3 gone from vnodes" false
    (List.exists (Reg.equal v3) (Igraph.vnodes g))

let test_copy_independent () =
  let fn, a, b, _, _ = straightline () in
  let g = build_graph fn in
  let g2 = Igraph.copy g in
  (* Merge in the copy; the original is unchanged. *)
  let s = List.find (fun r -> not (Igraph.interferes g r b) && Reg.is_virtual r && not (Reg.equal r b)) (Igraph.vnodes g) in
  Igraph.merge g2 ~keep:s ~drop:b;
  check reg_testable "copy merged" s (Igraph.alias g2 b);
  check reg_testable "original intact" b (Igraph.alias g b);
  ignore a

(* The dense graph (bit-matrix + adjacency vectors + cached degrees)
   must match the seed's Reg.Set-based construction exactly: same node
   set, same adjacency listed in ascending index (first-occurrence)
   order, same degrees, same recorded moves. *)
let igraph_matches_reference (fn : Cfg.func) =
  let g = build_graph fn in
  let oracle = Ref_igraph.build fn (Ref_live.compute fn) in
  let sequence reg =
    List.rev (Igraph.fold_adj g reg ~init:[] ~f:(fun acc n -> n :: acc))
  in
  let nodes_ok =
    Reg.Tbl.fold
      (fun reg cell ok ->
        ok
        && Regbits.find_index (Igraph.compact g) reg >= 0
        && Reg.Set.equal !cell (adj g reg)
        && List.equal Reg.equal
             (Ref_igraph.adj_sequence oracle reg)
             (sequence reg)
        && Igraph.degree g reg
           =
           if Reg.is_phys reg then Igraph.infinite_degree
           else Reg.Set.cardinal !cell)
      oracle.Ref_igraph.adj_tbl true
  in
  nodes_ok
  && List.for_all
       (fun v -> Reg.Tbl.mem oracle.Ref_igraph.adj_tbl v)
       (Igraph.vnodes g)
  &&
  let mvs = Igraph.moves g and oms = oracle.Ref_igraph.move_list in
  List.length mvs = List.length oms
  && List.for_all2
       (fun mv (id, dst, src) ->
         mv.Igraph.instr_id = id
         && Reg.equal mv.Igraph.dst dst
         && Reg.equal mv.Igraph.src src)
       mvs oms

let test_dense_igraph_suite () =
  List.iter
    (fun (name, p) ->
      let prepared = Pipeline.prepare Machine.middle_pressure p in
      List.iter
        (fun fn ->
          let webs = Webs.run (Cfg.clone fn) in
          if not (igraph_matches_reference webs.Webs.func) then
            Alcotest.failf "dense/reference igraph mismatch in %s/%s" name
              fn.Cfg.name)
        prepared.Cfg.funcs)
    (Suite.all ())

let prop_dense_igraph_random =
  qcheck ~count:30 "dense igraph = Reg.Set igraph (random programs)" seed_gen
    (fun seed ->
      let p = prepared_random_program seed in
      List.for_all
        (fun fn ->
          let webs = Webs.run (Cfg.clone fn) in
          igraph_matches_reference webs.Webs.func)
        p.Cfg.funcs)

(* After merges every root's vector still lists exactly its bit row,
   ascending (so strictly: the row has no repeats), and a virtual
   root's cached degree is the vector's length. *)
let vectors_match_rows g =
  let n = Regbits.size (Igraph.compact g) in
  let all = List.init n Fun.id in
  List.for_all
    (fun i ->
      Igraph.root_idx g i <> i
      ||
      let listed = ref [] in
      Igraph.iter_adj_idx g i (fun j -> listed := j :: !listed);
      let listed = List.rev !listed in
      listed = List.filter (Igraph.interferes_idx g i) all
      && (Reg.is_phys (Igraph.reg_of g i)
         || List.length listed = Igraph.degree_idx g i))
    all

let test_merge_keeps_order () =
  let programs =
    List.map
      (fun (_, p) -> Pipeline.prepare Machine.middle_pressure p)
      (Suite.all ())
    @ List.init 12 (fun i -> prepared_random_program (i + 1))
  in
  List.iter
    (fun (p : Cfg.program) ->
      List.iter
        (fun fn ->
          let g = build_graph (Webs.run (Cfg.clone fn)).Webs.func in
          ignore (Coalesce.aggressive g);
          if not (vectors_match_rows g) then
            Alcotest.failf "adjacency vector off its row after merges in %s"
              fn.Cfg.name)
        p.Cfg.funcs)
    programs

let prop_symmetric =
  qcheck ~count:30 "interference is symmetric and irreflexive" seed_gen
    (fun seed ->
      let p = prepared_random_program seed in
      List.for_all
        (fun fn ->
          let webs = Webs.run (Cfg.clone fn) in
          let g = build_graph webs.Webs.func in
          List.for_all
            (fun r ->
              (not (Igraph.interferes g r r))
              && Reg.Set.for_all
                   (fun n -> Igraph.interferes g n r)
                   (adj g r))
            (Igraph.vnodes g))
        p.Cfg.funcs)

let prop_edges_within_class =
  qcheck ~count:30 "edges connect same-class registers only" seed_gen
    (fun seed ->
      let p = prepared_random_program seed in
      List.for_all
        (fun fn ->
          let webs = Webs.run (Cfg.clone fn) in
          let fn = webs.Webs.func in
          let g = build_graph fn in
          List.for_all
            (fun r ->
              Reg.Set.for_all
                (fun n -> Cfg.cls_of fn n = Cfg.cls_of fn r)
                (adj g r))
            (Igraph.vnodes g))
        p.Cfg.funcs)

let prop_simultaneously_live_interfere =
  qcheck ~count:30
    "same-class registers live together interfere unless copy-related"
    seed_gen (fun seed ->
      let p = prepared_random_program seed in
      List.for_all
        (fun fn ->
          let webs = Webs.run (Cfg.clone fn) in
          let fn = webs.Webs.func in
          let live = Liveness.compute fn in
          let g = Igraph.build fn live in
          (* Copies are exempt from the interference rule (they may
             legitimately share a register while both live: they hold
             the same value). *)
          let copy_related x y =
            List.exists
              (fun mv ->
                (Reg.equal mv.Igraph.dst x && Reg.equal mv.Igraph.src y)
                || (Reg.equal mv.Igraph.dst y && Reg.equal mv.Igraph.src x))
              (Igraph.moves g)
          in
          List.for_all
            (fun (b : Cfg.block) ->
              let live_in =
                Reg.Set.filter Reg.is_virtual (live_in live b.Cfg.label)
              in
              Reg.Set.for_all
                (fun x ->
                  Reg.Set.for_all
                    (fun y ->
                      Reg.equal x y
                      || Cfg.cls_of fn x <> Cfg.cls_of fn y
                      || Igraph.interferes g x y
                      || copy_related x y)
                    live_in)
                live_in)
            fn.Cfg.blocks)
        p.Cfg.funcs)

let () =
  Alcotest.run "igraph"
    [
      ( "unit",
        [
          tc "straightline edges" test_straightline_edges;
          tc "copy-source exemption" test_move_exemption;
          tc "moves recorded" test_moves_recorded;
          tc "degree = |adj|" test_degree_matches_adj;
          tc "physical degree infinite" test_phys_infinite_degree;
          tc "merge unions adjacency" test_merge_unions_adjacency;
          tc "merge rejects interference" test_merge_rejects_interfering;
          tc "merge into physical" test_merge_into_phys;
          tc "copy is independent" test_copy_independent;
        ] );
      ( "props",
        [
          prop_symmetric;
          prop_edges_within_class;
          prop_simultaneously_live_interfere;
        ] );
      ( "dense-equivalence",
        [
          tc "suite programs" test_dense_igraph_suite;
          prop_dense_igraph_random;
          tc "vectors ascending after coalescing" test_merge_keeps_order;
        ] );
    ]
