(* The traced path, composed stage by stage from the library's public
   functions.

   [prepare_func] is [Pipeline.prepare_func] one stage per span.
   [alloc] replays an allocator's rounds phase by phase, in the
   allocator's own order, for the allocators whose round is built from
   public phase functions: the [Alloc_common] family (chaitin, briggs)
   and both PDGC variants.  The other allocators' coloring steps are
   private to their modules, so they run as one [Allocator.exec] span
   and their time shows up as [regalloc.unattributed_ns].  Callers
   compare every replayed output with the one [Allocator.exec]
   produced; a difference is a stale replay (the allocator changed and
   this file did not), counted as [trace.replay_mismatches].

   [hooks] hands the traced path to the workloads ({!Hooks}). *)

open Trace

let prepare_func m f =
  let ssa = span Ssa_construct (fun () -> Ssa_construct.run f) in
  let out = span Ssa_destruct (fun () -> Ssa_destruct.run ssa) in
  let low = span Lower (fun () -> Lower.func m out) in
  span Pair_schedule (fun () -> Pair_schedule.func low)

(* Exact counts gathered by the replays: rounds and spilled ranges of
   every allocation, and for PDGC the precedence edges and the honored
   and offered preferences of every round. *)
let allocations = ref 0
let rounds = ref 0
let spilled_ranges = ref 0
let cpg_edges = ref 0
let prefs_honored = ref 0
let prefs_offered = ref 0

let counters =
  [ allocations; rounds; spilled_ranges; cpg_edges; prefs_honored; prefs_offered ]

(* Alloc_common.analyze, one phase per span. *)
let analyze fn =
  let loops = span Loops (fun () -> Loops.compute fn) in
  let live = span Liveness (fun () -> Liveness.compute fn) in
  let graph = span Igraph (fun () -> Igraph.build fn live) in
  let costs =
    span Spill_cost (fun () ->
        Spill_cost.compute ~loops ~cpt:(Liveness.compact live) fn)
  in
  { Alloc_common.fn; live; graph; costs; loops }

let finish_alloc what fn colors =
  let alloc = Reg.Tbl.create 64 in
  Reg.Set.iter
    (fun r ->
      match colors r with
      | Some c -> Reg.Tbl.replace alloc r c
      | None ->
          raise
            (Alloc_common.Failed
               (Printf.sprintf "%s: %s left uncolored" what (Reg.to_string r))))
    (Cfg.all_vregs fn);
  alloc

(* Spill insertion and the next round, shared by both round loops. *)
let respill ?rematerialize round fn spilled ~temps ~n ~spill_instrs ~spill_slots =
  let ins =
    span Spill_insert (fun () -> Spill_insert.insert ?rematerialize fn spilled)
  in
  let temps = Alloc_common.add_spill_temps temps ins in
  round ins.Spill_insert.func ~temps ~n:(n + 1)
    ~spill_instrs:(spill_instrs + ins.Spill_insert.n_spill_instrs)
    ~spill_slots:(spill_slots @ ins.Spill_insert.slots)

(* Alloc_common.allocate. *)
let common (config : Alloc_common.config) (m : Machine.t) f0 =
  let f0 = Cfg.clone f0 in
  let rec round fn ~temps ~n ~spill_instrs ~spill_slots =
    if n > 64 then
      raise (Alloc_common.Failed (config.Alloc_common.name ^ ": too many rounds"));
    let webs = span Webs (fun () -> Webs.run fn) in
    let fn = webs.Webs.func in
    let temps = Alloc_common.remap_temps webs temps in
    let a = analyze fn in
    let g = a.Alloc_common.graph in
    span Coalesce (fun () ->
        match config.Alloc_common.coalesce with
        | Alloc_common.No_coalesce -> ()
        | Alloc_common.Aggressive -> ignore (Coalesce.aggressive g)
        | Alloc_common.Conservative ->
            ignore (Coalesce.conservative ~k:m.Machine.k g));
    let no_spill r = Reg.Tbl.mem temps r in
    let simp =
      span Simplify (fun () ->
          Simplify.run config.Alloc_common.mode ~k:m.Machine.k g
            ~spill_choice:
              (Alloc_common.choose_victim a.Alloc_common.costs g ~no_spill)
            ~never_spill:no_spill ())
    in
    let respill spilled =
      (* a coalesced node spills every member of its cluster *)
      let spilled =
        Reg.Set.filter
          (fun r -> Reg.Set.mem (Igraph.alias g r) spilled)
          (Cfg.all_vregs fn)
        |> Reg.Set.union spilled
      in
      respill round fn spilled ~temps ~n ~spill_instrs ~spill_slots
    in
    if not (Reg.Set.is_empty simp.Simplify.forced_spills) then
      respill simp.Simplify.forced_spills
    else
      let sel =
        span Color_select (fun () ->
            Color_select.run m g ~stack:simp.Simplify.stack
              ~order:config.Alloc_common.order ~biased:config.Alloc_common.biased)
      in
      if not (Reg.Set.is_empty sel.Color_select.failed) then
        respill sel.Color_select.failed
      else
        let alloc =
          finish_alloc config.Alloc_common.name fn (Color_select.color_of sel g)
        in
        { Alloc_common.func = fn; alloc; rounds = n; spill_instrs; spill_slots }
  in
  round f0 ~temps:(Reg.Tbl.create 16) ~n:1 ~spill_instrs:0 ~spill_slots:[]

let honored (s : Pdgc_select.stats) =
  s.Pdgc_select.honored_coalesce + s.Pdgc_select.honored_sequential
  + s.Pdgc_select.honored_kind + s.Pdgc_select.honored_limited

(* Preferences the RPG offers select, memory preferences (active
   spills) excluded: the base of [core.prefs_honored_ratio]. *)
let offered g rpg =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc (p : Rpg.pref) ->
          match p.Rpg.target with Rpg.Memory -> acc | _ -> acc + 1)
        acc (Rpg.prefs rpg r))
    0 (Igraph.vnodes g)

(* Pdgc.allocate_config_verbose with the default configuration. *)
let pdgc variant (m : Machine.t) f0 =
  let config = Pdgc.default_config variant in
  let kinds =
    match variant with
    | Pdgc.Coalescing_only -> `Coalesce_only
    | Pdgc.Full_preferences -> `All
  in
  let f0 = Cfg.clone f0 in
  let rec round fn ~temps ~n ~spill_instrs ~spill_slots =
    if n > 64 then raise (Alloc_common.Failed "pdgc: too many rounds");
    let webs = span Webs (fun () -> Webs.run fn) in
    let fn = webs.Webs.func in
    let temps = Alloc_common.remap_temps webs temps in
    let a = analyze fn in
    let g = a.Alloc_common.graph in
    let str = span Strength (fun () -> Strength.of_analysis a) in
    let rpg =
      span Rpg (fun () -> Rpg.build ~kinds ~cpt:(Igraph.compact g) m fn str)
    in
    let costs = a.Alloc_common.costs in
    let no_spill r = Reg.Tbl.mem temps r in
    let simp =
      span Simplify (fun () ->
          Simplify.run Simplify.Optimistic ~k:m.Machine.k g
            ~never_spill:no_spill ()
            ~spill_choice:(fun blocked ->
              let metric r =
                if no_spill r then infinity
                else
                  float_of_int (Spill_cost.spill_cost costs r)
                  /. float_of_int (max 1 (Igraph.degree g r))
              in
              match blocked with
              | [] -> invalid_arg "spill_choice"
              | first :: rest ->
                  List.fold_left
                    (fun acc r -> if metric r < metric acc then r else acc)
                    first rest))
    in
    let cpg =
      span Cpg (fun () ->
          if config.Pdgc.relax_order then Cpg.build ~k:m.Machine.k g simp
          else Cpg.of_total_order simp.Simplify.stack)
    in
    let sel =
      span Select (fun () ->
          Pdgc_select.run m g rpg cpg str
            (Pdgc_select.params ~no_spill
               ~spill_risk:simp.Simplify.potential_spills
               ~policy:config.Pdgc.policy
               ~fallback_nonvolatile_first:(variant = Pdgc.Coalescing_only)
               ()))
    in
    span Bench (fun () ->
        cpg_edges := !cpg_edges + Cpg.n_edges cpg;
        prefs_honored := !prefs_honored + honored sel.Pdgc_select.stats;
        prefs_offered := !prefs_offered + offered g rpg);
    if Reg.Set.is_empty sel.Pdgc_select.spilled then
      let alloc = finish_alloc "pdgc" fn (Reg.Tbl.find_opt sel.Pdgc_select.colors) in
      { Alloc_common.func = fn; alloc; rounds = n; spill_instrs; spill_slots }
    else
      respill ~rematerialize:config.Pdgc.rematerialize round fn
        sel.Pdgc_select.spilled ~temps ~n ~spill_instrs ~spill_slots
  in
  round f0 ~temps:(Reg.Tbl.create 16) ~n:1 ~spill_instrs:0 ~spill_slots:[]

(* The phase-by-phase replay of a registry allocator, if its round is
   public. *)
let replay_of (a : Allocator.t) =
  match a.Allocator.name with
  | "chaitin" -> Some (common Chaitin.config)
  | "briggs" -> Some (common Briggs.aggressive)
  | "pdgc" -> Some (pdgc Pdgc.Full_preferences)
  | "pdgc-co" -> Some (pdgc Pdgc.Coalescing_only)
  | _ -> None

let alloc (a : Allocator.t) m f =
  let res =
    span Alloc (fun () ->
        match replay_of a with
        | Some replay -> replay m f
        | None -> Allocator.exec a m f)
  in
  incr allocations;
  rounds := !rounds + res.Alloc_common.rounds;
  spilled_ranges := !spilled_ranges + List.length res.Alloc_common.spill_slots;
  res

(* [Pipeline.prepare_func], [Allocator.exec], [Finalize.apply]. *)
let compile (a : Allocator.t) m f =
  let res = alloc a m (prepare_func m f) in
  (res, span Finalize (fun () -> Finalize.apply m res))

(* The daemon's cache key: body digest, name, register file, allocator
   (the daemon also keys the rest of the machine description, which is
   fixed here). *)
let key (m : Machine.t) algo (f : Cfg.func) =
  String.concat "\000" [ Cfg.body_digest f; f.Cfg.name; string_of_int m.Machine.k; algo ]

(* One request as the daemon serves it: decode, digest, cache lookup,
   and on a miss the pipeline, encode and cache add; then the response
   is encoded.  [traced] runs the pipeline stage by stage; otherwise it
   is the daemon's own composition. *)
let new_server ~capacity =
  let cache = Cache.create ~capacity in
  fun ~traced payload ->
    match span Decode (fun () -> Protocol.decode_request payload) with
    | Protocol.Alloc { machine = m; algo = name; program = Protocol.Binary p } ->
        let a = Option.get (Allocator.find name) in
        let blobs =
          List.map
            (fun f ->
              let k = span Digest (fun () -> key m name f) in
              match span Cache_find (fun () -> Cache.find cache k) with
              | Some b -> b
              | None ->
                  let res, fin =
                    if traced then compile a m f
                    else
                      let res = Allocator.exec a m (Pipeline.prepare_func m f) in
                      (res, Finalize.apply m res)
                  in
                  let b = span Encode (fun () -> Protocol.encode_func_reply res fin) in
                  span Cache_add (fun () -> Cache.add cache k b);
                  b)
            p.Cfg.funcs
        in
        span Encode (fun () -> Protocol.encode_response (Protocol.Funcs blobs))
    | _ -> failwith "unexpected request"

let hooks =
  {
    Hooks.compile;
    new_server;
    reset_counts = (fun () -> List.iter (fun c -> c := 0) counters);
    counts =
      (fun () ->
        {
          Hooks.allocations = !allocations;
          rounds = !rounds;
          spilled_ranges = !spilled_ranges;
          cpg_edges = !cpg_edges;
          prefs_honored = !prefs_honored;
          prefs_offered = !prefs_offered;
        });
  }
