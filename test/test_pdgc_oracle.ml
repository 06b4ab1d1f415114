(* Bit-for-bit equivalence of the dense PDGC core (array-backed RPG /
   CPG and the indexed-heap select) against verbatim copies of the
   seed's tree-based implementations (Helpers.Ref_rpg / Ref_cpg /
   Ref_select): same edges and strengths, same readiness sets out of
   [resolve], same final colorings, spills and honor statistics. *)

open Helpers

(* Order-insensitive identity for a preference: constructor tag, target
   register (rendered, so no polymorphic compare on abstract types),
   both weight sides, originating instruction. *)
let rpg_repr (target_tag, target, w, iid) = (target_tag, target, w, iid)

let repr_of_pref (p : Rpg.pref) =
  let tag, tgt =
    match p.Rpg.target with
    | Rpg.Coalesce r -> (0, Reg.to_string r)
    | Rpg.Seq_plus r -> (1, Reg.to_string r)
    | Rpg.Seq_minus r -> (2, Reg.to_string r)
    | Rpg.Kind -> (3, "")
    | Rpg.In_limited -> (4, "")
    | Rpg.Memory -> (5, "")
  in
  rpg_repr
    ( tag,
      tgt,
      (p.Rpg.weight.Strength.vol, p.Rpg.weight.Strength.nonvol),
      match p.Rpg.instr_id with Some i -> i | None -> -1 )

let repr_of_ref_pref (p : Ref_rpg.pref) =
  let tag, tgt =
    match p.Ref_rpg.target with
    | Ref_rpg.Coalesce r -> (0, Reg.to_string r)
    | Ref_rpg.Seq_plus r -> (1, Reg.to_string r)
    | Ref_rpg.Seq_minus r -> (2, Reg.to_string r)
    | Ref_rpg.Kind -> (3, "")
    | Ref_rpg.In_limited -> (4, "")
    | Ref_rpg.Memory -> (5, "")
  in
  rpg_repr
    ( tag,
      tgt,
      (p.Ref_rpg.weight.Strength.vol, p.Ref_rpg.weight.Strength.nonvol),
      match p.Ref_rpg.instr_id with Some i -> i | None -> -1 )

let reg_list_equal a b =
  List.length a = List.length b && List.for_all2 Reg.equal a b

(* The pdgc allocator's spill choice, replicated so the oracle builds
   the same simplification result the production round does. *)
let pdgc_simplify ~k g costs =
  Simplify.run Simplify.Optimistic ~k g
    ~never_spill:(fun _ -> false)
    ()
    ~spill_choice:(fun blocked ->
      let metric r =
        float_of_int (Spill_cost.spill_cost costs r)
        /. float_of_int (max 1 (Igraph.degree g r))
      in
      match blocked with
      | [] -> invalid_arg "spill_choice"
      | first :: rest ->
          List.fold_left
            (fun acc r -> if metric r < metric acc then r else acc)
            first rest)

(* One renumbered function with its round-1 analysis pipeline. *)
let prepare_fn fn =
  let webs = Webs.run (Cfg.clone fn) in
  let fn = webs.Webs.func in
  let a = analyze fn in
  (fn, a, Strength.of_analysis a)

(* What every comparison of one function reads, computed once: the
   simplification, the reference RPG per preference set, and both
   reference CPGs.  The reference RPG is never mutated after [build];
   the CPGs are, so consumers take [Ref_cpg.copy]s. *)
type shared = {
  prepared : Cfg.func * Alloc_common.analysis * Strength.t;
  simp : Simplify.result;
  ref_rpgs : ([ `All | `Coalesce_only ] * Ref_rpg.t) list;
  ref_cpg : Ref_cpg.t;
  ref_chain : Ref_cpg.t;
}

let share m ((fn, a, str) as prepared) =
  let g = a.Alloc_common.graph in
  let k = m.Machine.k in
  let simp = pdgc_simplify ~k g a.Alloc_common.costs in
  {
    prepared;
    simp;
    ref_rpgs =
      List.map
        (fun kinds -> (kinds, Ref_rpg.build ~kinds m fn str))
        [ `All; `Coalesce_only ];
    ref_cpg = Ref_cpg.build ~k g simp;
    ref_chain = Ref_cpg.of_total_order simp.Simplify.stack;
  }

let rpg_matches m kinds oracle (fn, a, str) =
  let g = a.Alloc_common.graph in
  let rpg = Rpg.build ~kinds ~cpt:(Igraph.compact g) m fn str in
  let regs = Reg.Set.elements (Cfg.all_vregs fn) in
  List.for_all
    (fun r ->
      let d = List.map repr_of_pref (Rpg.prefs rpg r) in
      let o = List.map repr_of_ref_pref (Ref_rpg.prefs oracle r) in
      d = o
      &&
      let di =
        List.map
          (fun (u, p) -> (Reg.to_string u, repr_of_pref p))
          (Rpg.incoming rpg r)
      and oi =
        List.map
          (fun (u, p) -> (Reg.to_string u, repr_of_ref_pref p))
          (Ref_rpg.incoming oracle r)
      in
      di = oi)
    regs
  && List.length (Rpg.pairs rpg) = List.length (Ref_rpg.pairs oracle)
  && List.for_all2
       (fun (i, a1, b1) (j, a2, b2) ->
         i = j && Reg.equal a1 a2 && Reg.equal b1 b2)
       (Rpg.pairs rpg) (Ref_rpg.pairs oracle)

(* Drain both graphs through the same resolution order and compare the
   readiness sets [resolve] hands back at every step. *)
let cpg_matches dense oracle =
  reg_list_equal (Cpg.nodes dense) (Ref_cpg.nodes oracle)
  && reg_list_equal (Cpg.initial dense) (Ref_cpg.initial oracle)
  && Cpg.n_edges dense = Ref_cpg.n_edges oracle
  && List.for_all
       (fun r ->
         reg_list_equal (Cpg.succs dense r) (Ref_cpg.succs oracle r)
         && reg_list_equal (Cpg.preds dense r) (Ref_cpg.preds oracle r))
       (Cpg.nodes dense)
  &&
  let rec drain q =
    match q with
    | [] -> true
    | n :: rest ->
        let rd = Cpg.resolve dense n in
        let ro = Ref_cpg.resolve oracle n in
        reg_list_equal rd ro && drain (rd @ rest)
  in
  drain (Cpg.initial dense)

let select_matches ?no_spill_set ?spill_risk_set m policy fallback shared
    kinds =
  let (fn, a, str), simp = (shared.prepared, shared.simp) in
  let g = a.Alloc_common.graph in
  let k = m.Machine.k in
  let rpg = Rpg.build ~kinds ~cpt:(Igraph.compact g) m fn str in
  let ref_rpg = List.assoc kinds shared.ref_rpgs in
  let cpg = Cpg.build ~k g simp in
  let ref_cpg = Ref_cpg.copy shared.ref_cpg in
  let no_spill =
    match no_spill_set with
    | None -> fun _ -> false
    | Some s -> fun r -> Reg.Set.mem r s
  in
  let spill_risk =
    match spill_risk_set with
    | None -> simp.Simplify.potential_spills
    | Some s -> s
  in
  let sel =
    Pdgc_select.run m g rpg cpg str
      (Pdgc_select.params ~no_spill ~spill_risk ~policy
         ~fallback_nonvolatile_first:fallback ())
  in
  let ref_policy =
    match policy with
    | Pdgc_select.Differential -> Ref_select.Differential
    | Pdgc_select.Strongest -> Ref_select.Strongest
    | Pdgc_select.Fifo -> Ref_select.Fifo
  in
  let ref_sel =
    Ref_select.run m g ref_rpg ref_cpg str ~no_spill ~spill_risk
      ~policy:ref_policy ~fallback_nonvolatile_first:fallback
  in
  let sorted_colors tbl =
    Reg.Tbl.fold (fun r c acc -> (r, c) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Reg.compare a b)
  in
  let cd = sorted_colors sel.Pdgc_select.colors
  and co = sorted_colors ref_sel.Ref_select.colors in
  List.length cd = List.length co
  && List.for_all2
       (fun (r1, c1) (r2, c2) -> Reg.equal r1 r2 && Reg.equal c1 c2)
       cd co
  && Reg.Set.equal sel.Pdgc_select.spilled ref_sel.Ref_select.spilled
  && sel.Pdgc_select.stats.Pdgc_select.honored_coalesce
     = ref_sel.Ref_select.stats.Ref_select.honored_coalesce
  && sel.Pdgc_select.stats.Pdgc_select.honored_sequential
     = ref_sel.Ref_select.stats.Ref_select.honored_sequential
  && sel.Pdgc_select.stats.Pdgc_select.honored_kind
     = ref_sel.Ref_select.stats.Ref_select.honored_kind
  && sel.Pdgc_select.stats.Pdgc_select.honored_limited
     = ref_sel.Ref_select.stats.Ref_select.honored_limited
  && sel.Pdgc_select.stats.Pdgc_select.active_spills
     = ref_sel.Ref_select.stats.Ref_select.active_spills

(* Drain both graphs resolving a *random* ready node at each step.  The
   queue-order drain above exercises only one interleaving of the
   incremental pending counters; the reworked relaxation must hand back
   identical readiness sets under every resolution order. *)
let cpg_random_drain_matches rng dense oracle =
  let rec drain ready =
    match ready with
    | [] -> true
    | _ ->
        let i = Rng.int rng (List.length ready) in
        let n = List.nth ready i in
        let rest = List.filteri (fun j _ -> j <> i) ready in
        let rd = Cpg.resolve dense n in
        let ro = Ref_cpg.resolve oracle n in
        reg_list_equal rd ro && drain (rest @ rd)
  in
  reg_list_equal (Cpg.initial dense) (Ref_cpg.initial oracle)
  && drain (Cpg.initial dense)

(* Fresh dense CPGs (built and chained) beside copies of their shared
   references: resolving mutates both sides. *)
let built_cpgs m shared =
  let _, a, _ = shared.prepared in
  let g = a.Alloc_common.graph in
  let k = m.Machine.k and simp = shared.simp in
  [
    (Cpg.build ~k g simp, Ref_cpg.copy shared.ref_cpg);
    (Cpg.of_total_order simp.Simplify.stack, Ref_cpg.copy shared.ref_chain);
  ]

let check_fn ?(seed = 0) ?(m = Machine.middle_pressure) name fn =
  let shared = share m (prepare_fn fn) in
  List.iter
    (fun (kinds, oracle) ->
      if not (rpg_matches m kinds oracle shared.prepared) then
        Alcotest.failf "dense/reference RPG mismatch in %s" name)
    shared.ref_rpgs;
  List.iter
    (fun (d, o) ->
      if not (cpg_matches d o) then
        Alcotest.failf "dense/reference CPG mismatch in %s" name)
    (built_cpgs m shared);
  List.iter
    (fun (policy, fallback, kinds) ->
      if not (select_matches m policy fallback shared kinds) then
        Alcotest.failf "dense/reference select mismatch in %s" name)
    [
      (Pdgc_select.Differential, false, `All);
      (Pdgc_select.Differential, true, `Coalesce_only);
      (Pdgc_select.Strongest, false, `All);
      (Pdgc_select.Fifo, false, `All);
    ];
  (* Incremental-path coverage: random resolve orders over fresh graph
     pairs, then select runs under randomized spill-risk / no-spill
     subsets (which permute the assignment interleaving) across all
     three policies. *)
  let rng = Rng.create ((seed * 31) + Hashtbl.hash name) in
  for _round = 1 to 3 do
    List.iter
      (fun (d, o) ->
        if not (cpg_random_drain_matches rng d o) then
          Alcotest.failf "dense/reference CPG mismatch (random drain) in %s"
            name)
      (built_cpgs m shared)
  done;
  let fn', _, _ = shared.prepared in
  let vregs = Reg.Set.elements (Cfg.all_vregs fn') in
  let random_subset () =
    Reg.Set.of_list (List.filter (fun _ -> Rng.int rng 4 = 0) vregs)
  in
  for _round = 1 to 3 do
    let no_spill_set = random_subset () in
    let spill_risk_set = random_subset () in
    let policy =
      match Rng.int rng 3 with
      | 0 -> Pdgc_select.Differential
      | 1 -> Pdgc_select.Strongest
      | _ -> Pdgc_select.Fifo
    in
    let fallback = Rng.int rng 2 = 0 in
    if
      not
        (select_matches ~no_spill_set ~spill_risk_set m policy fallback
           shared `All)
    then
      Alcotest.failf "dense/reference select mismatch (randomized params) in %s"
        name
  done

(* k=24 and k=16: at k=16 construction records more CPG edges, and the
   reduction drops more of them, than at k=24. *)
let test_suite_programs () =
  List.iter
    (fun m ->
      List.iter
        (fun (name, p) ->
          let prepared = Pipeline.prepare m p in
          List.iter
            (fun fn ->
              check_fn ~m
                (Printf.sprintf "%s/%s k=%d" name fn.Cfg.name m.Machine.k)
                fn)
            prepared.Cfg.funcs)
        (Suite.all ()))
    [ Machine.middle_pressure; Machine.make ~k:16 () ]

(* Each program at middle pressure and at k=8.  At k=8 construction
   records the most precedence edges and the reduction drops the most of
   them, so the random drains there check hardest that [resolve] over
   the recorded relation readies what the oracle's reduced graph does. *)
let prop_random =
  qcheck ~count:25 "dense PDGC core = tree-based oracle (random programs)"
    seed_gen (fun seed ->
      List.iter
        (fun m ->
          let p = prepared_random_program ~m seed in
          List.iter
            (fun fn ->
              check_fn ~seed ~m
                (Printf.sprintf "seed %d k=%d" seed m.Machine.k)
                fn)
            p.Cfg.funcs)
        [ Machine.middle_pressure; Machine.make ~k:8 () ];
      true)

let () =
  Alcotest.run "pdgc_oracle"
    [
      ( "dense-equivalence",
        [ tc "suite programs" test_suite_programs; prop_random ] );
    ]
