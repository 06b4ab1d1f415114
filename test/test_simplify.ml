(* Simplification tests: stack discipline, spill decisions, the
   colorability guarantee. *)

open Helpers

let build_graph fn =
  let live = Liveness.compute fn in
  Igraph.build fn live

let first_choice blocked = List.hd blocked

let test_straightline_no_spills () =
  let fn, _, _, _, _ = straightline () in
  let g = build_graph fn in
  let simp =
    Simplify.run Simplify.Chaitin ~k:4 g ~spill_choice:first_choice ()
  in
  check Alcotest.bool "no forced spills" true
    (Reg.Set.is_empty simp.Simplify.forced_spills);
  check Alcotest.bool "no potential spills" true
    (Reg.Set.is_empty simp.Simplify.potential_spills);
  check Alcotest.int "all nodes stacked"
    (List.length (Igraph.vnodes g))
    (List.length simp.Simplify.stack)

let test_removal_order_reverses_stack () =
  let fn, _, _, _, _ = straightline () in
  let g = build_graph fn in
  let simp =
    Simplify.run Simplify.Chaitin ~k:4 g ~spill_choice:first_choice ()
  in
  check
    (Alcotest.list reg_testable)
    "removal order" (List.rev simp.Simplify.stack)
    (Simplify.removal_order simp)

(* A clique of n simultaneously live registers. *)
let clique n =
  let b = Builder.create ~name:"clique" ~n_params:0 in
  let regs = List.init n (fun i -> Builder.iconst b i) in
  let sum =
    List.fold_left
      (fun acc r -> Builder.binop b Instr.Add acc r)
      (List.hd regs) (List.tl regs)
  in
  Builder.ret b (Some sum);
  (Builder.finish b, regs)

let test_clique_spills_when_k_small () =
  let fn, _ = clique 6 in
  let g = build_graph fn in
  let simp =
    Simplify.run Simplify.Chaitin ~k:4 g ~spill_choice:first_choice ()
  in
  check Alcotest.bool "forced spills happen" false
    (Reg.Set.is_empty simp.Simplify.forced_spills)

let test_clique_fits_when_k_large () =
  let fn, _ = clique 6 in
  let g = build_graph fn in
  let simp =
    Simplify.run Simplify.Chaitin ~k:8 g ~spill_choice:first_choice ()
  in
  check Alcotest.bool "no spills at k=8" true
    (Reg.Set.is_empty simp.Simplify.forced_spills)

let test_optimistic_pushes_victims () =
  let fn, _ = clique 6 in
  let g = build_graph fn in
  let simp =
    Simplify.run Simplify.Optimistic ~k:4 g ~spill_choice:first_choice ()
  in
  check Alcotest.bool "no forced spills in optimistic mode" true
    (Reg.Set.is_empty simp.Simplify.forced_spills);
  check Alcotest.bool "potential spills recorded" false
    (Reg.Set.is_empty simp.Simplify.potential_spills);
  (* Optimistic mode still stacks every node. *)
  check Alcotest.int "all nodes stacked"
    (List.length (Igraph.vnodes g))
    (List.length simp.Simplify.stack)

let test_never_spill_falls_back_to_optimism () =
  let fn, regs = clique 6 in
  let g = build_graph fn in
  let protected = List.nth regs 0 in
  let simp =
    Simplify.run Simplify.Chaitin ~k:4 g
      ~spill_choice:(fun _ -> protected)
      ~never_spill:(fun r -> Reg.equal r protected)
      ()
  in
  (* The protected victim lands in potential, not forced. *)
  check Alcotest.bool "protected not forced" false
    (Reg.Set.mem protected simp.Simplify.forced_spills);
  check Alcotest.bool "protected pushed optimistically" true
    (Reg.Set.mem protected simp.Simplify.potential_spills)

(* The Chaitin guarantee: with no spills, popping the stack and greedily
   coloring never fails. *)
let greedy_color_ok ~k g stack =
  let colors = Reg.Tbl.create 32 in
  List.for_all
    (fun r ->
      let cls = Igraph.cls g r in
      let forbidden =
        Reg.Set.fold
          (fun n acc ->
            if Reg.is_phys n then Reg.Set.add n acc
            else
              match Reg.Tbl.find_opt colors n with
              | Some c -> Reg.Set.add c acc
              | None -> acc)
          (adj g r) Reg.Set.empty
      in
      let free =
        List.filter
          (fun c -> not (Reg.Set.mem c forbidden))
          (List.init k (fun i -> Reg.phys cls i))
      in
      match free with
      | c :: _ ->
          Reg.Tbl.replace colors r c;
          true
      | [] -> false)
    stack

let prop_chaitin_stack_colorable =
  qcheck ~count:40 "spill-free Chaitin stacks color greedily" seed_gen
    (fun seed ->
      let k = 12 in
      let p = prepared_random_program ~m:(Machine.make ~k ()) seed in
      List.for_all
        (fun fn ->
          let webs = Webs.run (Cfg.clone fn) in
          let g = build_graph webs.Webs.func in
          let simp =
            Simplify.run Simplify.Chaitin ~k g ~spill_choice:first_choice ()
          in
          Reg.Set.is_empty simp.Simplify.forced_spills = false
          || greedy_color_ok ~k g simp.Simplify.stack)
        p.Cfg.funcs)

let prop_stack_complete =
  qcheck ~count:40 "every non-spilled node appears exactly once on the stack"
    seed_gen (fun seed ->
      let p = prepared_random_program seed in
      List.for_all
        (fun fn ->
          let webs = Webs.run (Cfg.clone fn) in
          let g = build_graph webs.Webs.func in
          let simp =
            Simplify.run Simplify.Optimistic ~k:8 g ~spill_choice:first_choice ()
          in
          let stack_set = Reg.Set.of_list simp.Simplify.stack in
          List.length simp.Simplify.stack = Reg.Set.cardinal stack_set
          && Reg.Set.equal stack_set (Reg.Set.of_list (Igraph.vnodes g)))
        p.Cfg.funcs)

let () =
  Alcotest.run "simplify"
    [
      ( "unit",
        [
          tc "straightline has no spills" test_straightline_no_spills;
          tc "removal order" test_removal_order_reverses_stack;
          tc "clique spills at small k" test_clique_spills_when_k_small;
          tc "clique fits at large k" test_clique_fits_when_k_large;
          tc "optimistic pushes victims" test_optimistic_pushes_victims;
          tc "never_spill falls back" test_never_spill_falls_back_to_optimism;
        ] );
      ("props", [ prop_chaitin_stack_colorable; prop_stack_complete ]);
    ]
