(* Coalescing-phase tests: aggressive and conservative merging, the
   Briggs and George tests. *)

open Helpers

let build_graph fn =
  let live = Liveness.compute fn in
  Igraph.build fn live

(* A chain of copies: a = const; b = a; c = b; ret c — fully
   coalescable. *)
let copy_chain () =
  let b = Builder.create ~name:"chain" ~n_params:0 in
  let a = Builder.iconst b 7 in
  let x = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:x ~src:a;
  let y = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:y ~src:x;
  Builder.ret b (Some y);
  (Builder.finish b, a, x, y)

let test_aggressive_merges_chain () =
  let fn, a, x, y = copy_chain () in
  let g = build_graph fn in
  let merges = Coalesce.aggressive g in
  check Alcotest.int "two merges" 2 merges;
  check reg_testable "x joins a" (Igraph.alias g a) (Igraph.alias g x);
  check reg_testable "y joins a" (Igraph.alias g a) (Igraph.alias g y)

let test_aggressive_respects_interference () =
  (* x = a, but a is used after x is redefined: a and x interfere. *)
  let b = Builder.create ~name:"noc" ~n_params:0 in
  let a = Builder.iconst b 1 in
  let x = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:x ~src:a;
  let one = Builder.iconst b 1 in
  Builder.emit b (Instr.Binop { op = Instr.Add; dst = x; src1 = x; src2 = one });
  let s = Builder.binop b Instr.Add x a in
  Builder.ret b (Some s);
  let fn = Builder.finish b in
  let g = build_graph fn in
  check Alcotest.bool "a-x interfere" true (Igraph.interferes g a x);
  ignore (Coalesce.aggressive g);
  check Alcotest.bool "not merged" false
    (Reg.equal (Igraph.alias g a) (Igraph.alias g x))

let test_aggressive_prefers_phys () =
  let fn, regs = Fig7.build () in
  let webs = Webs.run fn in
  let fn = webs.Webs.func in
  let g = build_graph fn in
  ignore (Coalesce.aggressive g);
  let web_of orig =
    Reg.Tbl.fold
      (fun w o acc -> if Reg.equal o orig then w else acc)
      webs.Webs.origin orig
  in
  (* v3 is copy-related to arg0 (r0): merged representative must be the
     physical register. *)
  let v3 = web_of regs.Fig7.v3 in
  check Alcotest.bool "v3 merged into a physical register" true
    (Reg.is_phys (Igraph.alias g v3))

let test_briggs_test () =
  let fn, _ = Fig7.build () in
  let webs = Webs.run fn in
  let fn = webs.Webs.func in
  let g = build_graph fn in
  (* With k as large as the graph, every merge is conservative. *)
  List.iter
    (fun mv ->
      let a = mv.Igraph.dst and b = mv.Igraph.src in
      if not (Igraph.interferes g a b) then
        check Alcotest.bool "briggs ok at huge k" true
          (Coalesce.briggs_ok ~k:32 ~degree:(Igraph.degree_idx g) g
             (Igraph.index_of g a) (Igraph.index_of g b)))
    (Igraph.moves g)

let test_george_test_trivial () =
  let fn, _, x, y = copy_chain () in
  let g = build_graph fn in
  (* Low-degree neighbors make the George test succeed. *)
  check Alcotest.bool "george ok" true
    (Coalesce.george_ok ~k:4 ~degree:(Igraph.degree_idx g) g
       (Igraph.index_of g x) (Igraph.index_of g y))

(* The copy c = a among a clique of long-lived values: [a] also sees
   [n] and [t], which [c] does not.  On the graph's degrees both tests
   refuse the pair.  Iterated coalescing judges by its current degree,
   which reads 0 for a node on its select stack: with [n] and [t]
   stacked George accepts, and with the clique stacked Briggs does. *)
let test_degree_sources () =
  let k = 3 in
  let b = Builder.create ~name:"degrees" ~n_params:0 in
  let clique = List.init 4 (fun i -> Builder.iconst b i) in
  let n = Builder.iconst b 5 in
  let a = Builder.iconst b 9 in
  let t = Builder.binop b Instr.Add a n in
  let c = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:c ~src:a;
  let sum =
    List.fold_left (fun acc r -> Builder.binop b Instr.Add acc r) c clique
  in
  Builder.ret b (Some sum);
  let g = build_graph (Builder.finish b) in
  let idx = Igraph.index_of g in
  let ia = idx a and ic = idx c in
  let graph = Igraph.degree_idx g in
  let stacked regs i =
    if List.exists (fun r -> idx r = i) regs then 0 else graph i
  in
  check Alcotest.bool "a-c coalescable" false (Igraph.interferes g a c);
  check Alcotest.bool "george, graph degree" false
    (Coalesce.george_ok ~k ~degree:graph g ia ic);
  check Alcotest.bool "george, n and t stacked" true
    (Coalesce.george_ok ~k ~degree:(stacked [ n; t ]) g ia ic);
  check Alcotest.bool "briggs, graph degree" false
    (Coalesce.briggs_ok ~k ~degree:graph g ia ic);
  check Alcotest.bool "briggs, clique stacked" true
    (Coalesce.briggs_ok ~k ~degree:(stacked clique) g ia ic)

let test_conservative_no_merge_when_unsafe () =
  (* A copy pair whose union has >= k significant neighbors must not be
     merged conservatively.  Build: x = y where x interferes with k
     high-degree nodes. *)
  let k = 3 in
  let b = Builder.create ~name:"unsafe" ~n_params:0 in
  (* clique of 4 long-lived values *)
  let clique = List.init 4 (fun i -> Builder.iconst b i) in
  let y = Builder.iconst b 9 in
  let x = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:x ~src:y;
  let sum =
    List.fold_left
      (fun acc r -> Builder.binop b Instr.Add acc r)
      x clique
  in
  Builder.ret b (Some sum);
  let fn = Builder.finish b in
  let g = build_graph fn in
  let g2 = Igraph.copy g in
  let merges = Coalesce.conservative ~k g2 in
  let aggressive_merges = Coalesce.aggressive g in
  (* Aggressive merges more than (or as much as) conservative. *)
  check Alcotest.bool "conservative <= aggressive" true
    (merges <= aggressive_merges)

let prop_aggressive_single_pass_fixpoint =
  qcheck ~count:30 "a second aggressive pass finds nothing" seed_gen
    (fun seed ->
      let p = prepared_random_program seed in
      List.for_all
        (fun fn ->
          let webs = Webs.run (Cfg.clone fn) in
          let g = build_graph webs.Webs.func in
          ignore (Coalesce.aggressive g);
          Coalesce.aggressive g = 0)
        p.Cfg.funcs)

let prop_conservative_preserves_colorability =
  qcheck ~count:30 "conservative coalescing never causes spills" seed_gen
    (fun seed ->
      let k = 10 in
      let p = prepared_random_program ~m:(Machine.make ~k ()) seed in
      List.for_all
        (fun fn ->
          let webs = Webs.run (Cfg.clone fn) in
          let g0 = build_graph webs.Webs.func in
          let simp0 =
            Simplify.run Simplify.Chaitin ~k g0 ~spill_choice:List.hd ()
          in
          (* Only check graphs that were colorable before coalescing. *)
          if Reg.Set.is_empty simp0.Simplify.forced_spills then begin
            let g = build_graph webs.Webs.func in
            ignore (Coalesce.conservative ~k g);
            let simp =
              Simplify.run Simplify.Chaitin ~k g ~spill_choice:List.hd ()
            in
            Reg.Set.is_empty simp.Simplify.forced_spills
          end
          else true)
        p.Cfg.funcs)

let prop_merged_nodes_share_no_edge =
  qcheck ~count:30 "merged pairs never interfere at merge time" seed_gen
    (fun seed ->
      let p = prepared_random_program seed in
      List.for_all
        (fun fn ->
          let webs = Webs.run (Cfg.clone fn) in
          let g = build_graph webs.Webs.func in
          let g_ref = Igraph.copy g in
          ignore (Coalesce.aggressive g);
          (* In the ORIGINAL graph, directly merged pairs (via a move)
             must be interference-free. *)
          List.for_all
            (fun mv ->
              let same_rep =
                Reg.equal (Igraph.alias g mv.Igraph.dst) (Igraph.alias g mv.Igraph.src)
              in
              (not same_rep)
              || not (Igraph.interferes g_ref mv.Igraph.dst mv.Igraph.src))
            (Igraph.moves g))
        p.Cfg.funcs)

let () =
  Alcotest.run "coalesce"
    [
      ( "unit",
        [
          tc "aggressive merges a chain" test_aggressive_merges_chain;
          tc "aggressive respects interference"
            test_aggressive_respects_interference;
          tc "physical representative wins" test_aggressive_prefers_phys;
          tc "briggs test at large k" test_briggs_test;
          tc "george test" test_george_test_trivial;
          tc "both degree sources" test_degree_sources;
          tc "conservative caution" test_conservative_no_merge_when_unsafe;
        ] );
      ( "props",
        [
          prop_aggressive_single_pass_fixpoint;
          prop_conservative_preserves_colorability;
          prop_merged_nodes_share_no_edge;
        ] );
    ]
