(* Coloring Precedence Graph tests, including the paper's central
   claim: any topological order of the CPG preserves colorability. *)

open Helpers

let build_graph fn =
  let live = Liveness.compute fn in
  Igraph.build fn live

let simplify ~k g =
  Simplify.run Simplify.Optimistic ~k g ~spill_choice:List.hd ()

let test_fig7_cpg_k3 () =
  let a = Fig7.run () in
  let cpg = a.Fig7.cpg3 in
  let r = a.Fig7.regs in
  (* Paper Fig. 7(e): v1 -> v0, v2 -> v0, v3 -> v4. *)
  check Alcotest.bool "v1 precedes v0" true
    (List.mem r.Fig7.v0 (Cpg.succs cpg r.Fig7.v1));
  check Alcotest.bool "v2 precedes v0" true
    (List.mem r.Fig7.v0 (Cpg.succs cpg r.Fig7.v2));
  check Alcotest.bool "v3 precedes v4" true
    (List.mem r.Fig7.v4 (Cpg.succs cpg r.Fig7.v3));
  (* v1, v2, v3 hang off the top (no predecessors). *)
  List.iter
    (fun (n, reg) ->
      check (Alcotest.list reg_testable) (n ^ " has no preds") []
        (Cpg.preds cpg reg))
    [ ("v1", r.Fig7.v1); ("v2", r.Fig7.v2); ("v3", r.Fig7.v3) ]

let test_fig7_cpg_k4_relaxed () =
  let a = Fig7.run () in
  (* With four registers the order relaxes: strictly fewer precedence
     edges than at k = 3. *)
  check Alcotest.bool "k=4 has fewer edges" true
    (Cpg.n_edges a.Fig7.cpg4 < Cpg.n_edges a.Fig7.cpg3)

let test_acyclic () =
  let a = Fig7.run () in
  check Alcotest.bool "k3 acyclic" true (cpg_acyclic a.Fig7.cpg3);
  check Alcotest.bool "k4 acyclic" true (cpg_acyclic a.Fig7.cpg4)

let test_resolve_bookkeeping () =
  let a = Fig7.run () in
  let webs_fn = a.Fig7.func in
  let g = build_graph webs_fn in
  let simp = simplify ~k:3 g in
  let cpg = Cpg.build ~k:3 g simp in
  (* Resolving every node in some topological order visits all nodes. *)
  let visited = ref 0 in
  let q = ref (Cpg.initial cpg) in
  while !q <> [] do
    match !q with
    | [] -> ()
    | n :: rest ->
        incr visited;
        q := rest @ Cpg.resolve cpg n
  done;
  check Alcotest.int "all nodes visited" (List.length (Cpg.nodes cpg)) !visited

(* The paper's soundness claim, tested directly: when simplification
   succeeds without optimistic spills, ANY topological order colors
   greedily within k registers. *)
let random_topo_color ~k g cpg rng =
  let ready = ref (Cpg.initial cpg) in
  let colors = Reg.Tbl.create 64 in
  let ok = ref true in
  while !ready <> [] do
    let n = List.nth !ready (Rng.int rng (List.length !ready)) in
    ready := List.filter (fun x -> not (Reg.equal x n)) !ready;
    let forbidden =
      Reg.Set.fold
        (fun nb acc ->
          if Reg.is_phys nb then Reg.Set.add nb acc
          else
            match Reg.Tbl.find_opt colors nb with
            | Some c -> Reg.Set.add c acc
            | None -> acc)
        (adj g n) Reg.Set.empty
    in
    (match
       List.find_opt
         (fun c -> not (Reg.Set.mem c forbidden))
         (List.init k (fun i -> Reg.phys (Igraph.cls g n) i))
     with
    | Some c -> Reg.Tbl.replace colors n c
    | None -> ok := false);
    ready := Cpg.resolve cpg n @ !ready
  done;
  !ok

(* to_dot must emit nodes and edges in sorted order so dumps diff
   cleanly across runs: rendered with register-rank names (zero-padded,
   so lexicographic order = Reg order), every non-top edge statement
   must appear in ascending (source, successor) order. *)
let test_dot_deterministic () =
  let a = Fig7.run () in
  List.iter
    (fun cpg ->
      let order = List.sort Reg.compare (Cpg.nodes cpg) in
      let rank r =
        let rec go i = function
          | [] -> invalid_arg "rank"
          | x :: tl -> if Reg.equal x r then i else go (i + 1) tl
        in
        go 0 order
      in
      let name r = Printf.sprintf "n%04d" (rank r) in
      let render () = Format.asprintf "%a" (Cpg.to_dot ~name) cpg in
      let d = render () in
      check Alcotest.string "stable across renders" d (render ());
      let contains l sub =
        let n = String.length sub and len = String.length l in
        let rec go i = i + n <= len && (String.sub l i n = sub || go (i + 1)) in
        go 0
      in
      let edges =
        String.split_on_char '\n' d
        |> List.filter (fun l -> contains l "->" && not (contains l "top"))
      in
      check Alcotest.bool "at least one edge rendered" true (edges <> []);
      check
        (Alcotest.list Alcotest.string)
        "edge statements sorted" (List.sort compare edges) edges)
    [ a.Fig7.cpg3; a.Fig7.cpg4 ]

let prop_any_topological_order_colors =
  qcheck ~count:60 "any CPG topological order colors within k" seed_gen
    (fun seed ->
      let k = 14 in
      let p = prepared_random_program ~m:(Machine.make ~k ()) seed in
      let rng = Rng.create (seed * 7 + 1) in
      List.for_all
        (fun fn ->
          let webs = Webs.run (Cfg.clone fn) in
          let g = build_graph webs.Webs.func in
          let simp = simplify ~k g in
          (* Only the spill-free case carries the guarantee. *)
          Reg.Set.is_empty simp.Simplify.potential_spills = false
          ||
          let ok = ref true in
          for _ = 1 to 3 do
            let cpg = Cpg.build ~k g simp in
            if not (random_topo_color ~k g cpg rng) then ok := false
          done;
          !ok)
        p.Cfg.funcs)

let prop_cpg_acyclic =
  qcheck ~count:40 "the CPG is acyclic" seed_gen (fun seed ->
      let k = 10 in
      let p = prepared_random_program ~m:(Machine.make ~k ()) seed in
      List.for_all
        (fun fn ->
          let webs = Webs.run (Cfg.clone fn) in
          let g = build_graph webs.Webs.func in
          let simp = simplify ~k g in
          let cpg = Cpg.build ~k g simp in
          cpg_acyclic cpg)
        p.Cfg.funcs)

let prop_cpg_nodes_cover_graph =
  qcheck ~count:40 "CPG nodes = simplified nodes" seed_gen (fun seed ->
      let p = prepared_random_program seed in
      List.for_all
        (fun fn ->
          let webs = Webs.run (Cfg.clone fn) in
          let g = build_graph webs.Webs.func in
          let simp = simplify ~k:12 g in
          let cpg = Cpg.build ~k:12 g simp in
          Reg.Set.equal
            (Reg.Set.of_list (Cpg.nodes cpg))
            (Reg.Set.of_list (Igraph.vnodes g)))
        p.Cfg.funcs)

let () =
  Alcotest.run "cpg"
    [
      ( "fig7",
        [
          tc "k=3 edges match the paper" test_fig7_cpg_k3;
          tc "k=4 relaxes the order" test_fig7_cpg_k4_relaxed;
          tc "acyclic" test_acyclic;
          tc "resolve bookkeeping" test_resolve_bookkeeping;
          tc "to_dot deterministic and sorted" test_dot_deterministic;
        ] );
      ( "props",
        [
          prop_any_topological_order_colors;
          prop_cpg_acyclic;
          prop_cpg_nodes_cover_graph;
        ] );
    ]
