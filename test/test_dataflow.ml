(* Tests for liveness, reaching definitions, dominance and loops. *)

open Helpers

(* Liveness ------------------------------------------------------------ *)

let test_liveness_straightline () =
  let fn, a, b, s, r = straightline () in
  let live = Liveness.compute fn in
  check reg_set_testable "nothing live at entry" Reg.Set.empty
    (live_in live fn.Cfg.entry);
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
  let at_header = live_in live header in
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
    (live_in live join.Cfg.label);
  let entry_out = live_out live (Cfg.block fn fn.Cfg.entry) in
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
  let str = Strength.of_analysis (analyze fn) in
  check Alcotest.int "x crosses once" 1 (Strength.crossings str x);
  check Alcotest.int "y does not cross" 0 (Strength.crossings str y)

let prop_liveness_undefined_free =
  qcheck "generated programs have no undefined uses" seed_gen (fun seed ->
      let p = random_program seed in
      List.for_all
        (fun fn ->
          let live = Liveness.compute fn in
          Reg.Set.is_empty
            (Reg.Set.filter Reg.is_virtual (live_in live fn.Cfg.entry)))
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
                  (fun acc s -> Reg.Set.union acc (live_in live s))
                  Reg.Set.empty (Cfg.successors b)
              in
              Reg.Set.equal expected (live_out live b))
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
      Reg.Set.equal (live_in dense l) (Ref_live.live_in oracle l)
      && Reg.Set.equal (live_out dense b) (Ref_live.live_out oracle l)
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

(* Definitions of [r] among the sites reaching the entry of block [b]:
   those the forward walk sees at its first instruction. *)
let n_reaching reaching (b : Cfg.block) r =
  let n = ref (-1) in
  Reaching.iter_block_forward_bits reaching b
    ~f:(fun ~reaching:defs ~site:_ _ ->
      if !n < 0 then
        n :=
          Regbits.Set.fold defs ~init:0 ~f:(fun n s ->
              if Reg.equal (Reaching.site_reg reaching s) r then n + 1 else n));
  !n

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
    (n_reaching reaching join x)

let test_reaching_loop () =
  let fn, acc, _, header, _, _ = counted_loop () in
  let reaching = Reaching.compute fn in
  check Alcotest.int "both defs reach header" 2
    (n_reaching reaching (Cfg.block fn header) acc)

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

(* Dominance and loops against the definitions ---------------------------- *)

let ints = Alcotest.(list int)

(* Every fact of [Dominance] and [loops] for every label of [fn], against
   [Ref_dom]; children and frontiers compare as sets. *)
let check_cfg_facts what (fn : Cfg.func) ~loops =
  let dom = Dominance.compute fn in
  let r = Ref_dom.compute fn in
  let labels = Ref_dom.labels r in
  let at l fact = Printf.sprintf "%s: L%d %s" what l fact in
  check ints (what ^ ": reachable labels") labels
    (List.sort compare (Dominance.labels dom));
  List.iter
    (fun l ->
      check Alcotest.(option int) (at l "idom") (Ref_dom.idom r l)
        (Dominance.idom dom l);
      check ints (at l "children") (Ref_dom.children r l)
        (List.sort compare (Dominance.children dom l));
      check ints (at l "frontier") (Ref_dom.frontier r l)
        (List.sort compare (Dominance.frontier dom l));
      List.iter
        (fun a ->
          if Dominance.dominates dom a l <> Ref_dom.dominates r a l then
            Alcotest.failf "%s: dominates L%d L%d" what a l)
        labels)
    labels;
  for l = 0 to Cfg.label_bound fn - 1 do
    check Alcotest.int (at l "depth") (Ref_dom.depth r l) (Loops.depth loops l)
  done;
  check ints (what ^ ": loop headers") (Ref_dom.headers r)
    (List.sort compare (Loops.loop_headers loops))

let k8 = Machine.make ~k:8 ()

(* The body of every round of a k=8 optimistic allocation of [fn]
   (no coalescing, so spills come early), each with the loop forest the
   round driver handed it. *)
let round_bodies (fn : Cfg.func) =
  let bodies = ref [] in
  let color (a : Alloc_common.analysis) ~no_spill =
    bodies := (a.Alloc_common.fn, a.Alloc_common.loops) :: !bodies;
    let g = a.Alloc_common.graph in
    let spill s = Alloc_common.Spill (Alloc_common.spill_clusters g a.Alloc_common.fn s) in
    let simp =
      Simplify.run Simplify.Optimistic ~k:k8.Machine.k g
        ~spill_choice:(Alloc_common.choose_victim a.Alloc_common.costs g ~no_spill)
        ~never_spill:no_spill ()
    in
    if not (Reg.Set.is_empty simp.Simplify.forced_spills) then
      spill simp.Simplify.forced_spills
    else
      let sel =
        Color_select.run k8 g ~stack:simp.Simplify.stack
          ~order:Color_select.Nonvolatile_first ~biased:false
      in
      if not (Reg.Set.is_empty sel.Color_select.failed) then
        spill sel.Color_select.failed
      else Alloc_common.Colored (Color_select.color_of sel g)
  in
  ignore (Alloc_common.drive ~name:"rounds" fn color);
  List.rev !bodies

(* A function before [prepare], after it, and after each spill round. *)
let check_cfg_facts_stages what (fn : Cfg.func) =
  check_cfg_facts (what ^ " raw") fn ~loops:(Loops.compute fn);
  let prepared = Pipeline.prepare_func k8 fn in
  check_cfg_facts (what ^ " prepared") prepared ~loops:(Loops.compute prepared);
  List.iteri
    (fun n (body, loops) ->
      check_cfg_facts (Printf.sprintf "%s round %d" what (n + 1)) body ~loops)
    (round_bodies prepared)

let check_program_cfg_facts name (p : Cfg.program) =
  List.iter
    (fun (fn : Cfg.func) -> check_cfg_facts_stages (name ^ "/" ^ fn.Cfg.name) fn)
    p.Cfg.funcs

let test_cfg_facts_suite () =
  List.iter (fun (name, p) -> check_program_cfg_facts name p) (Suite.all ())

let test_cfg_facts_random () =
  for seed = 1 to 12 do
    check_program_cfg_facts (Printf.sprintf "seed %d" seed) (random_program seed)
  done

(* The round driver computes the loop forest once per function: web
   renumbering and spill insertion must keep the label list and every
   block's successor list.  From the second round on it renames webs
   with [Webs.rename], which must give what [Webs.run] gives on the
   spilled body: the same body, next fresh name and origin table. *)
let shape (fn : Cfg.func) =
  List.map (fun (b : Cfg.block) -> (b.Cfg.label, Cfg.successors b)) fn.Cfg.blocks

let check_rename what (fn : Cfg.func) =
  let by_run = Webs.run (Cfg.clone fn)
  and by_rename = Webs.rename (Cfg.clone fn) in
  let origin (w : Webs.t) =
    Reg.Tbl.fold (fun r o acc -> (r, o) :: acc) w.Webs.origin []
    |> List.sort compare
  in
  check Alcotest.string (what ^ ": renamed body")
    (Digest.to_hex (Cfg.body_digest by_run.Webs.func))
    (Digest.to_hex (Cfg.body_digest by_rename.Webs.func));
  check Alcotest.int (what ^ ": next_reg") by_run.Webs.func.Cfg.next_reg
    by_rename.Webs.func.Cfg.next_reg;
  check Alcotest.(list (pair int int)) (what ^ ": origin") (origin by_run)
    (origin by_rename)

(* A block listed before the one defining [x] and [y] reads both: the
   walk meets them first as two uses of one instruction, so a rename
   must name them in [Instr.map_uses]' order, as [Webs.run] does.
   Prepared code never has this shape (its blocks are in reverse
   postorder), so the function is used as built. *)
let uses_before_defs () =
  let b = Builder.create ~name:"uses_first" ~n_params:1 in
  let p = Builder.reg b Reg.Int_class in
  Builder.param b p 0;
  let sum = Builder.new_block b and defs = Builder.new_block b in
  Builder.jump b defs;
  Builder.switch_to b defs;
  let x = Builder.binop b Instr.Add p (Builder.iconst b 1) in
  let y = Builder.binop b Instr.Mul p x in
  Builder.jump b sum;
  Builder.switch_to b sum;
  Builder.ret b (Some (Builder.binop b Instr.Sub x y));
  Builder.finish b

let test_rounds_keep_cfg () =
  let shape_t = Alcotest.(list (pair int (list int))) in
  let prepared =
    List.concat_map
      (fun (name, (p : Cfg.program)) ->
        List.map
          (fun (fn : Cfg.func) ->
            (name ^ "/" ^ fn.Cfg.name, Pipeline.prepare_func k8 fn))
          p.Cfg.funcs)
      (Suite.all ()
      @ List.init 12 (fun i ->
            (Printf.sprintf "seed %d" (i + 1), random_program (i + 1))))
  in
  List.iter
    (fun (what, fn) ->
      let webs = (Webs.run fn).Webs.func in
      check shape_t (what ^ ": webs") (shape fn) (shape webs);
      let vregs = Reg.Set.elements (Cfg.all_vregs webs) in
      let every_third = List.filteri (fun i _ -> i mod 3 = 0) vregs in
      List.iter
        (fun (which, spilled) ->
          List.iter
            (fun rematerialize ->
              let what =
                Printf.sprintf "%s: spilling %s (remat %b)" what which
                  rematerialize
              in
              let ins =
                Spill_insert.insert ~rematerialize (Cfg.clone webs)
                  (Reg.Set.of_list spilled)
              in
              check shape_t what (shape fn) (shape ins.Spill_insert.func);
              check_rename what ins.Spill_insert.func)
            [ false; true ])
        [
          ("no vreg", []);
          ("every vreg", vregs);
          ("every third vreg", every_third);
        ])
    (("uses before defs", uses_before_defs ()) :: prepared)

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
  check Alcotest.int "entry input" 0 (Solver.input r fn.Cfg.entry);
  let join = find_ret_block fn in
  check Alcotest.int "join input" 2 (Solver.input r join.Cfg.label)

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
    (live_in live tail);
  check reg_set_testable "nothing live at entry" Reg.Set.empty
    (live_in live fn.Cfg.entry);
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
    boundary_bits;
  (* union_inter_into over sets of one, two and three words. *)
  let mask = set_of [ 62; 63; 125; 126 ] in
  let dst = set_of [ 0 ] in
  Regbits.Set.union_inter_into ~src:s ~mask ~dst;
  check int_list "union with an intersection" boundary_bits (members dst);
  let dst = Regbits.Set.create 0 in
  Regbits.Set.union_inter_into ~src:(set_of [ 0; 62; 125 ]) ~mask ~dst;
  check int_list "destination grows" [ 62; 125 ] (members dst);
  Regbits.Set.union_inter_into ~src:s ~mask:(set_of [ 0 ]) ~dst;
  check int_list "mask of one word" [ 0; 62; 125 ] (members dst);
  (* symmetrize over a matrix of three-word rows. *)
  let rows = Array.init 127 (fun _ -> Regbits.Set.create 127) in
  List.iter
    (fun (i, j) -> Regbits.Set.add rows.(i) j)
    [ (0, 126); (62, 63); (126, 125); (125, 126) ];
  Regbits.Set.symmetrize rows;
  check int_list "mirrored across words" [ 0; 125 ] (members rows.(126));
  check int_list "mirrored into the first word" [ 126 ] (members rows.(0));
  check int_list "mirrored into the second word" [ 62 ] (members rows.(63));
  check int_list "an edge held both ways once" [ 126 ] (members rows.(125));
  check Alcotest.int "no other member" 6
    (Array.fold_left (fun n r -> n + Regbits.Set.cardinal r) 0 rows)

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

let vec_members v =
  List.rev (Regbits.Vec.fold v ~init:[] ~f:(fun acc i -> i :: acc))

let prop_regbits_union_inter_and_vec =
  qcheck ~count:200 "union_inter_into and sorted vectors = list model"
    QCheck2.Gen.(triple sized_set_gen sized_set_gen sized_set_gen)
    (fun ((scap, sl), (mcap, ml), (dcap, dl)) ->
      let src = set_of ~cap:scap sl
      and mask = set_of ~cap:mcap ml
      and dst = set_of ~cap:dcap dl in
      Regbits.Set.union_inter_into ~src ~mask ~dst;
      let v = Regbits.Vec.of_set src in
      List.iter (Regbits.Vec.insert_sorted v) ml;
      List.iter (Regbits.Vec.remove_sorted v) dl;
      members dst = model (dl @ List.filter (fun i -> List.mem i ml) sl)
      && vec_members (Regbits.Vec.of_set mask) = model ml
      && vec_members v
         = List.filter (fun i -> not (List.mem i dl)) (model (sl @ ml)))

(* The compact numbering: indices in first-visit order, fixed once
   built ([index] rejects a register it does not hold), the id-indexed
   window covers far-apart ids, and [reg_at] inverts [index]. *)
let test_numbering_first_visit () =
  (* a, b are params; s = a + b; r = s * a; ret r. *)
  let fn, a, b, s, r = straightline () in
  let cpt = Regbits.of_func fn in
  let expected = [ a; b; s; r ] in
  check Alcotest.int "size" (List.length expected) (Regbits.size cpt);
  List.iteri
    (fun k reg ->
      check Alcotest.(option int) ("find " ^ Reg.to_string reg) (Some k)
        (Regbits.find cpt reg);
      check Alcotest.int ("index " ^ Reg.to_string reg) k
        (Regbits.index cpt reg))
    expected;
  check Alcotest.int "index adds nothing" (List.length expected)
    (Regbits.size cpt)

let rejected f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_numbering_find () =
  let v = Reg.first_virtual in
  check Alcotest.(option int) "empty numbering" None
    (Regbits.find (Regbits.of_regs []) v);
  let cpt = Regbits.of_regs [ v + 3; 2 ] in
  check Alcotest.int "first" 0 (Regbits.index cpt (v + 3));
  check Alcotest.int "second" 1 (Regbits.index cpt 2);
  check Alcotest.(option int) "found" (Some 0) (Regbits.find cpt (v + 3));
  check Alcotest.(option int) "below the largest, not numbered" None
    (Regbits.find cpt (v + 1));
  check Alcotest.(option int) "past the table" None
    (Regbits.find cpt (v + 1_000_000));
  check Alcotest.(option int) "negative" None (Regbits.find cpt (-1));
  List.iter
    (fun (what, r) ->
      check Alcotest.bool (what ^ " index rejected") true
        (rejected (fun () -> Regbits.index cpt r)))
    [
      ("non-member", v + 1);
      ("physical non-member", 3);
      ("past the table", v + 1_000_000);
      ("negative", -1);
    ];
  check Alcotest.int "lookups add nothing" 2 (Regbits.size cpt);
  check Alcotest.bool "negative id not numbered" true
    (rejected (fun () -> Regbits.of_regs [ v; -1 ]))

(* Ids far apart on both sides of the first one widen the id window
   down and up while the numbering is built; a repeated register keeps
   its first index. *)
let test_numbering_far_ids () =
  let v = Reg.first_virtual in
  let far = v + 100_000 in
  let distinct = [ v + 7; 0; v; far; v + 50_000 ] in
  let cpt = Regbits.of_regs (distinct @ [ v + 7; far ]) in
  check Alcotest.int "size" (List.length distinct) (Regbits.size cpt);
  List.iteri
    (fun k reg ->
      check Alcotest.(option int) ("find " ^ Reg.to_string reg) (Some k)
        (Regbits.find cpt reg);
      check Alcotest.int ("index " ^ Reg.to_string reg) k
        (Regbits.index cpt reg);
      check Alcotest.int "reg_at" reg (Regbits.reg_at cpt k))
    distinct;
  List.iter
    (fun r ->
      check Alcotest.(option int) ("gap " ^ Reg.to_string r) None
        (Regbits.find cpt r))
    [ v + 1; v + 8; far - 1; far + 1 ]

let test_numbering_reg_at () =
  let cpt = Regbits.of_func (List.hd (random_program 7).Cfg.funcs) in
  for k = 0 to Regbits.size cpt - 1 do
    check Alcotest.int "index (reg_at k) = k" k
      (Regbits.index cpt (Regbits.reg_at cpt k))
  done;
  check Alcotest.bool "reg_at past size rejected" true
    (match Regbits.reg_at cpt (Regbits.size cpt) with
    | _ -> false
    | exception Invalid_argument _ -> true)

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
          tc "suite = definitions" test_cfg_facts_suite;
          tc "random programs = definitions" test_cfg_facts_random;
        ] );
      ( "loops",
        [
          tc "single loop depth" test_loop_depth;
          tc "nested loop depth" test_nested_loop_depth;
          tc "webs and spill insertion keep the CFG" test_rounds_keep_cfg;
        ] );
      ( "solver",
        [
          tc "forward path count" test_solver_forward_constant;
          tc "unreachable predecessor" test_solver_unreachable_pred;
        ] );
      ( "regbits",
        [
          tc "numbering in first-visit order" test_numbering_first_visit;
          tc "numbering find" test_numbering_find;
          tc "numbering of far-apart ids" test_numbering_far_ids;
          tc "numbering reg_at inverts index" test_numbering_reg_at;
          tc "word boundaries" test_regbits_boundaries;
          prop_regbits_iter_model;
          prop_regbits_union_inter_and_vec;
        ] );
    ]
