(* Tests for liveness, reaching definitions, dominance and loops. *)

open Helpers

(* Liveness ------------------------------------------------------------ *)

let test_liveness_straightline () =
  let fn, a, b, s, r = straightline () in
  let live = Liveness.compute fn in
  check reg_set_testable "nothing live at entry" Reg.Set.empty
    (Liveness.live_in live fn.Cfg.entry);
  let entry = Cfg.block fn fn.Cfg.entry in
  let after =
    Liveness.fold_block_backward live entry ~init:[]
      ~f:(fun acc ~live_out i -> (i.Instr.kind, live_out) :: acc)
  in
  List.iter
    (fun (kind, live_out) ->
      match kind with
      | Instr.Binop { op = Instr.Add; _ } ->
          (* after a+b: s and a live (both used by the mul). *)
          check reg_set_testable "after add" (Reg.Set.of_list [ s; a ]) live_out
      | Instr.Binop { op = Instr.Mul; _ } ->
          check reg_set_testable "after mul" (Reg.Set.singleton r) live_out
      | Instr.Param { index = 1; _ } ->
          check reg_set_testable "after params" (Reg.Set.of_list [ a; b ])
            live_out
      | _ -> ())
    after

let test_liveness_loop () =
  let fn, acc, i, header, _, _ = counted_loop () in
  let live = Liveness.compute fn in
  let at_header = Liveness.live_in live header in
  check Alcotest.bool "acc live around loop" true (Reg.Set.mem acc at_header);
  check Alcotest.bool "i live around loop" true (Reg.Set.mem i at_header)

let find_ret_block (fn : Cfg.func) =
  List.find
    (fun (b : Cfg.block) ->
      match (Cfg.terminator b).Instr.kind with
      | Instr.Ret _ -> true
      | _ -> false)
    fn.Cfg.blocks

let test_liveness_diamond () =
  let fn, p0, p1, x = diamond () in
  let live = Liveness.compute fn in
  let join = find_ret_block fn in
  check reg_set_testable "only x live at join" (Reg.Set.singleton x)
    (Liveness.live_in live join.Cfg.label);
  let entry_out = Liveness.live_out live fn.Cfg.entry in
  check Alcotest.bool "p0 live into arms" true (Reg.Set.mem p0 entry_out);
  check Alcotest.bool "p1 live into arms" true (Reg.Set.mem p1 entry_out)

let test_live_across_calls () =
  let b = Builder.create ~name:"f" ~n_params:1 in
  let x = Builder.reg b Reg.Int_class in
  Builder.param b x 0;
  let y = Builder.call b "g" [ x ] in
  let z = Builder.binop b Instr.Add x y in
  Builder.ret b (Some z);
  let fn = Builder.finish b in
  let live = Liveness.compute fn in
  let crossings = Liveness.live_across_calls fn live in
  check Alcotest.int "x crosses once" 1 (Hashtbl.find crossings x);
  check Alcotest.bool "y does not cross" false (Hashtbl.mem crossings y)

let prop_liveness_undefined_free =
  qcheck "generated programs have no undefined uses" seed_gen (fun seed ->
      let p = random_program seed in
      List.for_all
        (fun fn ->
          let live = Liveness.compute fn in
          Reg.Set.is_empty
            (Reg.Set.filter Reg.is_virtual (Liveness.live_in live fn.Cfg.entry)))
        p.Cfg.funcs)

let prop_live_out_is_join_of_succs =
  qcheck ~count:25 "live_out = union of successors' live_in" seed_gen
    (fun seed ->
      let p = random_program seed in
      List.for_all
        (fun fn ->
          let live = Liveness.compute fn in
          List.for_all
            (fun (b : Cfg.block) ->
              let expected =
                List.fold_left
                  (fun acc s -> Reg.Set.union acc (Liveness.live_in live s))
                  Reg.Set.empty (Cfg.successors b)
              in
              Reg.Set.equal expected (Liveness.live_out live b.Cfg.label))
            fn.Cfg.blocks)
        p.Cfg.funcs)

(* Dense liveness must match the seed's functional Reg.Set liveness
   bit-for-bit: block-boundary facts and the per-instruction live_out
   sequence of the backward walk. *)
let liveness_matches_reference (fn : Cfg.func) =
  let dense = Liveness.compute fn in
  let oracle = Ref_live.compute fn in
  List.for_all
    (fun (b : Cfg.block) ->
      let l = b.Cfg.label in
      Reg.Set.equal (Liveness.live_in dense l) (Ref_live.live_in oracle l)
      && Reg.Set.equal (Liveness.live_out dense l) (Ref_live.live_out oracle l)
      &&
      let walk fold =
        fold ~init:[] ~f:(fun acc ~live_out (_ : Instr.t) -> live_out :: acc)
      in
      List.equal Reg.Set.equal
        (walk (Liveness.fold_block_backward dense b))
        (walk (Ref_live.fold_block_backward oracle b)))
    fn.Cfg.blocks

let check_program_liveness name (p : Cfg.program) =
  List.iter
    (fun fn ->
      if not (liveness_matches_reference fn) then
        Alcotest.failf "dense/reference liveness mismatch in %s/%s" name
          fn.Cfg.name)
    p.Cfg.funcs

let test_dense_liveness_suite () =
  List.iter
    (fun (name, p) ->
      check_program_liveness name p;
      (* The prepared form adds calling-convention physical registers. *)
      check_program_liveness (name ^ ":prepared")
        (Pipeline.prepare Machine.middle_pressure p))
    (Suite.all ())

let prop_dense_liveness_random =
  qcheck ~count:30 "dense liveness = Reg.Set liveness (random programs)"
    seed_gen (fun seed ->
      let raw = random_program seed in
      let prepared = prepared_random_program seed in
      List.for_all liveness_matches_reference raw.Cfg.funcs
      && List.for_all liveness_matches_reference prepared.Cfg.funcs)

(* Reaching definitions ------------------------------------------------- *)

(* Definitions of [r] among the sites reaching the entry of block [l]. *)
let n_reaching reaching l r =
  Regbits.Set.fold (Reaching.reaching_in_bits reaching l) ~init:0
    ~f:(fun n s ->
      if Reg.equal (Reaching.site_reg reaching s) r then n + 1 else n)

let test_reaching_straightline () =
  let fn, a, _, _, _ = straightline () in
  let reaching = Reaching.compute fn in
  let sites_a = Reaching.sites_of_reg reaching a in
  check Alcotest.int "a has one def" 1 (List.length sites_a);
  check reg_testable "def register" a
    (Reaching.site_reg reaching (List.hd sites_a))

let test_reaching_diamond () =
  let fn, _, _, x = diamond () in
  let reaching = Reaching.compute fn in
  check Alcotest.int "x has three defs" 3
    (List.length (Reaching.sites_of_reg reaching x));
  let join = find_ret_block fn in
  (* The arm definitions kill the initial move on both paths. *)
  check Alcotest.int "two defs reach the join" 2
    (n_reaching reaching join.Cfg.label x)

let test_reaching_loop () =
  let fn, acc, _, header, _, _ = counted_loop () in
  let reaching = Reaching.compute fn in
  check Alcotest.int "both defs reach header" 2
    (n_reaching reaching header acc)

(* Dominance ------------------------------------------------------------ *)

let test_dominance_diamond () =
  let fn, _, _, _ = diamond () in
  let dom = Dominance.compute fn in
  let blocks = List.map (fun (b : Cfg.block) -> b.Cfg.label) fn.Cfg.blocks in
  let entry = fn.Cfg.entry in
  List.iter
    (fun l ->
      check Alcotest.bool
        (Printf.sprintf "entry dominates L%d" l)
        true
        (Dominance.dominates dom entry l))
    blocks;
  check Alcotest.bool "entry has no idom" true (Dominance.idom dom entry = None);
  let join = find_ret_block fn in
  check (Alcotest.option Alcotest.int) "join idom" (Some entry)
    (Dominance.idom dom join.Cfg.label)

let test_dominance_frontier () =
  let fn, _, _, _ = diamond () in
  let dom = Dominance.compute fn in
  let join = find_ret_block fn in
  let arms =
    List.filter
      (fun (b : Cfg.block) ->
        b.Cfg.label <> fn.Cfg.entry && b.Cfg.label <> join.Cfg.label)
      fn.Cfg.blocks
  in
  List.iter
    (fun (b : Cfg.block) ->
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "frontier of L%d" b.Cfg.label)
        [ join.Cfg.label ]
        (Dominance.frontier dom b.Cfg.label))
    arms;
  check (Alcotest.list Alcotest.int) "join frontier empty" []
    (Dominance.frontier dom join.Cfg.label)

let test_dominance_loop_frontier () =
  let fn, _, _, header, body, _ = counted_loop () in
  let dom = Dominance.compute fn in
  check Alcotest.bool "body frontier has header" true
    (List.mem header (Dominance.frontier dom body));
  check Alcotest.bool "header dominates body" true
    (Dominance.dominates dom header body)

let test_dom_children_partition () =
  let fn, _, _, _ = diamond () in
  let dom = Dominance.compute fn in
  let labels = Dominance.labels dom in
  let from_children =
    List.concat_map (fun l -> Dominance.children dom l) labels
  in
  check Alcotest.int "tree size" (List.length labels - 1)
    (List.length from_children);
  check
    (Alcotest.list Alcotest.int)
    "children unique"
    (List.sort_uniq compare from_children)
    (List.sort compare from_children)

let prop_idom_dominates =
  qcheck ~count:25 "immediate dominator dominates its node" seed_gen
    (fun seed ->
      let p = random_program seed in
      List.for_all
        (fun fn ->
          let dom = Dominance.compute fn in
          List.for_all
            (fun l ->
              match Dominance.idom dom l with
              | None -> l = fn.Cfg.entry
              | Some d -> Dominance.dominates dom d l && d <> l)
            (Dominance.labels dom))
        p.Cfg.funcs)

(* Loops ---------------------------------------------------------------- *)

let test_loop_depth () =
  let fn, _, _, header, body, exit = counted_loop () in
  let loops = Loops.compute fn in
  check Alcotest.int "header depth" 1 (Loops.depth loops header);
  check Alcotest.int "body depth" 1 (Loops.depth loops body);
  check Alcotest.int "exit depth" 0 (Loops.depth loops exit);
  check Alcotest.int "entry depth" 0 (Loops.depth loops fn.Cfg.entry);
  check Alcotest.int "body frequency" 10 (Loops.frequency loops body);
  check Alcotest.int "exit frequency" 1 (Loops.frequency loops exit);
  check (Alcotest.list Alcotest.int) "headers" [ header ]
    (Loops.loop_headers loops)

let test_nested_loop_depth () =
  let b = Builder.create ~name:"nested" ~n_params:0 in
  let n = Builder.iconst b 3 in
  let i = Builder.iconst b 0 in
  let h1 = Builder.new_block b in
  let b1 = Builder.new_block b in
  let h2 = Builder.new_block b in
  let b2 = Builder.new_block b in
  let x1 = Builder.new_block b in
  let x2 = Builder.new_block b in
  Builder.jump b h1;
  Builder.switch_to b h1;
  let c1 = Builder.cmp b Instr.Lt i n in
  Builder.branch b c1 ~ifso:b1 ~ifnot:x1;
  Builder.switch_to b b1;
  let j = Builder.iconst b 0 in
  Builder.jump b h2;
  Builder.switch_to b h2;
  let c2 = Builder.cmp b Instr.Lt j n in
  Builder.branch b c2 ~ifso:b2 ~ifnot:x2;
  Builder.switch_to b b2;
  let one = Builder.iconst b 1 in
  Builder.emit b (Instr.Binop { op = Instr.Add; dst = j; src1 = j; src2 = one });
  Builder.jump b h2;
  Builder.switch_to b x2;
  let one' = Builder.iconst b 1 in
  Builder.emit b (Instr.Binop { op = Instr.Add; dst = i; src1 = i; src2 = one' });
  Builder.jump b h1;
  Builder.switch_to b x1;
  Builder.ret b (Some i);
  let fn = Builder.finish b in
  let loops = Loops.compute fn in
  check Alcotest.int "outer body depth" 1 (Loops.depth loops b1);
  check Alcotest.int "inner body depth" 2 (Loops.depth loops b2);
  check Alcotest.int "inner frequency" 100 (Loops.frequency loops b2)

(* Solver --------------------------------------------------------------- *)

let test_solver_forward_constant () =
  let fn, _, _, _ = diamond () in
  let module Count = Solver.Make (struct
    type t = int

    let bottom = 0
    let equal = Int.equal
    let join = max
  end) in
  let r =
    Count.solve ~direction:Solver.Forward
      ~transfer:(fun _ x -> x + 1)
      ~entry_fact:0 fn
  in
  check Alcotest.int "entry input" 0 (Hashtbl.find r.Count.input fn.Cfg.entry);
  let join = find_ret_block fn in
  check Alcotest.int "join input" 2 (Hashtbl.find r.Count.input join.Cfg.label)

(* A function whose [dead] block is unreachable from the entry but
   branches back into live code: its edge must contribute bottom to the
   dataflow join instead of raising Not_found (solver regression). *)
let unreachable_block_func () =
  let b = Builder.create ~name:"unreach" ~n_params:0 in
  let x = Builder.iconst b 1 in
  let dead = Builder.new_block b in
  let tail = Builder.new_block b in
  Builder.jump b tail;
  Builder.switch_to b dead;
  Builder.jump b tail;
  Builder.switch_to b tail;
  Builder.ret b (Some x);
  (Builder.finish b, x, tail)

let test_solver_unreachable_pred () =
  let fn, x, tail = unreachable_block_func () in
  (* Backward analysis: the unreachable predecessor of [tail] must not
     crash the worklist. *)
  let live = Liveness.compute fn in
  check reg_set_testable "x live into tail" (Reg.Set.singleton x)
    (Liveness.live_in live tail);
  check reg_set_testable "nothing live at entry" Reg.Set.empty
    (Liveness.live_in live fn.Cfg.entry);
  (* Forward analysis over the same shape. *)
  let reaching = Reaching.compute fn in
  check Alcotest.bool "x def recorded" true
    (Reaching.sites_of_reg reaching x <> [])

(* Regbits ------------------------------------------------------------- *)

(* Word boundaries on a 63-bit OCaml int: 62 is the sign bit, 63 and
   126 open the second and third words. *)
let boundary_bits = [ 0; 62; 63; 125; 126 ]

let set_of ?(cap = 0) l =
  let s = Regbits.Set.create cap in
  List.iter (Regbits.Set.add s) l;
  s

let members s =
  List.rev (Regbits.Set.fold s ~init:[] ~f:(fun acc i -> i :: acc))

let iter_members s =
  let acc = ref [] in
  Regbits.Set.iter s (fun i -> acc := i :: !acc);
  List.rev !acc

let model l = List.sort_uniq compare l
let int_list = Alcotest.(list int)

let test_regbits_boundaries () =
  let s = set_of boundary_bits in
  check int_list "iter ascending" boundary_bits (iter_members s);
  check int_list "fold ascending" boundary_bits (members s);
  check Alcotest.int "cardinal" 5 (Regbits.Set.cardinal s);
  List.iter
    (fun i ->
      let one = set_of [ i ] in
      check int_list (Printf.sprintf "singleton %d" i) [ i ] (iter_members one))
    boundary_bits

(* Indices drawn mostly from the word boundaries, sets created with a
   random capacity hint so their word arrays differ in length. *)
let index_list_gen =
  QCheck2.Gen.(
    list_size (int_range 0 30)
      (oneof [ oneofl boundary_bits; int_range 0 190 ]))

let sized_set_gen = QCheck2.Gen.(pair (int_range 0 200) index_list_gen)

let prop_regbits_iter_model =
  qcheck ~count:200 "iter/fold = sorted-list model" sized_set_gen
    (fun (cap, l) ->
      let s = set_of ~cap l in
      iter_members s = model l
      && members s = model l
      && Regbits.Set.cardinal s = List.length (model l))

let prop_regbits_remove_inter =
  qcheck ~count:200 "remove_inter reports and removes dst ∩ src"
    QCheck2.Gen.(pair sized_set_gen sized_set_gen)
    (fun ((dcap, dl), (scap, sl)) ->
      let dst = set_of ~cap:dcap dl and src = set_of ~cap:scap sl in
      let reported = ref [] in
      Regbits.Set.remove_inter ~src ~dst (fun i -> reported := i :: !reported);
      let d = model dl and s = model sl in
      List.rev !reported = List.filter (fun i -> List.mem i s) d
      && members dst = List.filter (fun i -> not (List.mem i s)) d
      && members src = s)

let test_regbits_remove_inter_lengths () =
  (* One-word destination against a three-word source and back. *)
  let short = set_of [ 0; 5; 62 ] and long = set_of [ 5; 62; 63; 126 ] in
  let got = ref [] in
  Regbits.Set.remove_inter ~src:long ~dst:short (fun i -> got := i :: !got);
  check int_list "short dst: reported" [ 5; 62 ] (List.rev !got);
  check int_list "short dst: left" [ 0 ] (members short);
  let short = set_of [ 0; 5; 62 ] and long = set_of [ 5; 62; 63; 126 ] in
  got := [];
  Regbits.Set.remove_inter ~src:short ~dst:long (fun i -> got := i :: !got);
  check int_list "long dst: reported" [ 5; 62 ] (List.rev !got);
  check int_list "long dst: left" [ 63; 126 ] (members long);
  check int_list "src untouched" [ 0; 5; 62 ] (members short)

let () =
  Alcotest.run "dataflow"
    [
      ( "liveness",
        [
          tc "straightline" test_liveness_straightline;
          tc "loop" test_liveness_loop;
          tc "diamond" test_liveness_diamond;
          tc "live across calls" test_live_across_calls;
          prop_liveness_undefined_free;
          prop_live_out_is_join_of_succs;
        ] );
      ( "dense-equivalence",
        [
          tc "suite programs" test_dense_liveness_suite;
          prop_dense_liveness_random;
        ] );
      ( "reaching",
        [
          tc "straightline" test_reaching_straightline;
          tc "diamond kills" test_reaching_diamond;
          tc "loop back edge" test_reaching_loop;
        ] );
      ( "dominance",
        [
          tc "diamond dominators" test_dominance_diamond;
          tc "diamond frontiers" test_dominance_frontier;
          tc "loop frontier" test_dominance_loop_frontier;
          tc "dominator tree partitions" test_dom_children_partition;
          prop_idom_dominates;
        ] );
      ( "loops",
        [
          tc "single loop depth" test_loop_depth;
          tc "nested loop depth" test_nested_loop_depth;
        ] );
      ( "solver",
        [
          tc "forward path count" test_solver_forward_constant;
          tc "unreachable predecessor" test_solver_unreachable_pred;
        ] );
      ( "regbits",
        [
          tc "word boundaries" test_regbits_boundaries;
          prop_regbits_iter_model;
          tc "remove_inter across row lengths" test_regbits_remove_inter_lengths;
          prop_regbits_remove_inter;
        ] );
    ]
