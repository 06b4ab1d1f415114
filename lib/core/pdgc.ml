type variant = Coalescing_only | Full_preferences

type config = {
  variant : variant;
  policy : Pdgc_select.policy;
  relax_order : bool;
  rematerialize : bool;
}

let default_config variant =
  {
    variant;
    policy = Pdgc_select.Differential;
    relax_order = true;
    rematerialize = false;
  }

type extra = { select_stats : Pdgc_select.stats; cpg_edges : int }

let allocate_config_verbose config (m : Machine.t) f0 =
  let kinds =
    match config.variant with
    | Coalescing_only -> `Coalesce_only
    | Full_preferences -> `All
  in
  let color (a : Alloc_common.analysis) ~temps =
    let fn = a.Alloc_common.fn and g = a.Alloc_common.graph in
    let str = Strength.of_analysis a in
    let rpg = Rpg.build ~kinds ~cpt:(Igraph.compact g) m fn str in
    let costs = a.Alloc_common.costs in
    let no_spill r = Reg.Tbl.mem temps r in
    (* Nothing merged: [spill_cost] = [choose_victim]'s merged cost. *)
    let metric r =
      if no_spill r then infinity
      else
        float_of_int (Spill_cost.spill_cost costs r)
        /. float_of_int (max 1 (Igraph.degree g r))
    in
    (* Optimistic simplification; no merging — coalescing is deferred
       to selection. *)
    let simp =
      Simplify.run Simplify.Optimistic ~k:m.Machine.k g
        ~never_spill:no_spill ()
        ~spill_choice:(fun blocked ->
          fst (Alloc_common.first_min metric blocked))
    in
    let cpg =
      if config.relax_order then Cpg.build ~k:m.Machine.k g simp
      else Cpg.of_total_order simp.Simplify.stack
    in
    let sel =
      Pdgc_select.run m g rpg cpg str
        (Pdgc_select.params ~no_spill
           ~spill_risk:simp.Simplify.potential_spills ~policy:config.policy
           ~fallback_nonvolatile_first:(config.variant = Coalescing_only)
           ())
    in
    if Reg.Set.is_empty sel.Pdgc_select.spilled then
      Alloc_common.Colored
        ( Reg.Tbl.find_opt sel.Pdgc_select.colors,
          { select_stats = sel.Pdgc_select.stats; cpg_edges = Cpg.n_edges cpg }
        )
    else Alloc_common.Spill sel.Pdgc_select.spilled
  in
  Alloc_common.drive ~name:"pdgc" ~rematerialize:config.rematerialize f0 color

let allocate_verbose variant m f =
  allocate_config_verbose (default_config variant) m f

let allocate variant m f = fst (allocate_verbose variant m f)
let allocate_config config m f = fst (allocate_config_verbose config m f)

let allocator_coalescing_only =
  Allocator.v ~name:"pdgc-co" ~label:"only coalescing" (allocate Coalescing_only)

let allocator_full =
  Allocator.v ~name:"pdgc" ~label:"full preferences" (allocate Full_preferences)
