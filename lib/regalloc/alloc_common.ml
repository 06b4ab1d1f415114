type coalesce_kind = No_coalesce | Aggressive | Conservative

type config = {
  name : string;
  coalesce : coalesce_kind;
  mode : Simplify.mode;
  biased : bool;
  order : Color_select.order;
}

let config ~name ?(coalesce = Aggressive) ?(mode = Simplify.Optimistic)
    ?(biased = false) ?(order = Color_select.Nonvolatile_first) () =
  { name; coalesce; mode; biased; order }

type result = {
  func : Cfg.func;
  alloc : Reg.t Reg.Tbl.t;
  rounds : int;
  spill_instrs : int;
  spill_slots : (Reg.t * int) list;
}

exception Failed of string

let max_rounds = 64

(* Per-round analysis context.  Every allocator's round loop needs the
   same pipeline over the same renumbered body — loop forest, liveness,
   interference graph, spill costs — and several used to re-derive
   pieces of it (the loop forest alone was computed up to three times a
   round, hidden inside spill-cost and strength estimation).  Compute
   once, thread explicitly. *)
type analysis = {
  fn : Cfg.func;
  live : Liveness.t;
  graph : Igraph.t;
  costs : Spill_cost.t;
  loops : Loops.t;
}

let analyze ~loops fn =
  let live = Liveness.compute fn in
  let graph = Igraph.build fn live in
  let costs = Spill_cost.compute ~loops ~cpt:(Liveness.compact live) fn in
  { fn; live; graph; costs; loops }

(* Spill temporaries survive web renumbering: a web register is a
   temporary iff its origin register was.  One hash probe per web —
   the old [Reg.Set]-based rebuild scanned the whole temporary
   population per web. *)
let remap_temps (webs : Webs.t) temps =
  let out = Reg.Tbl.create 64 in
  Reg.Tbl.iter
    (fun w orig -> if Reg.Tbl.mem temps orig then Reg.Tbl.replace out w ())
    webs.Webs.origin;
  out

(* Registers at or above the spill-insertion watermark are the
   temporaries the new spill code introduced.  Every such register was
   handed out below the function's [next_reg]; one the spill code did
   not end up using is harmless, since the table is only ever probed
   with registers of the body (and the next round's [remap_temps]
   keeps only those). *)
let add_spill_temps temps (ins : Spill_insert.result) =
  let fn = ins.Spill_insert.func in
  for r = ins.Spill_insert.temp_watermark to fn.Cfg.next_reg - 1 do
    Reg.Tbl.replace temps r ()
  done;
  temps

let first_min metric = function
  | [] -> invalid_arg "first_min: empty list"
  | first :: rest ->
      List.fold_left
        (fun ((_, best_m) as best) r ->
          let m = metric r in
          if m < best_m then (r, m) else best)
        (first, metric first) rest

(* Pick the blocked node minimizing Chaitin's cost/degree metric.  The
   metric is applied once per round, so its merged-cost table is built
   on the round's first blocked step, and each node's metric on its
   first query; the later steps share both. *)
let choose_victim costs g ~no_spill =
  let metric = Spill_cost.chaitin_metric costs g ~no_spill in
  fun blocked ->
    let best, best_m = first_min metric blocked in
    if best_m = infinity then
      (* Only spill temporaries are blocked; take the max-degree one
         as a last resort. *)
      List.fold_left
        (fun acc r ->
          if Igraph.degree g r > Igraph.degree g acc then r else acc)
        best blocked
    else best

(* Spilling a coalesced node means spilling every member of the merged
   cluster, not just the representative's register. *)
let spill_clusters g fn spilled =
  Reg.Set.filter
    (fun r -> Reg.Set.mem (Igraph.alias g r) spilled)
    (Cfg.all_vregs fn)
  |> Reg.Set.union spilled

type step = Colored of (Reg.t -> Reg.t option) | Spill of Reg.Set.t

(* The round's temporaries as a bit test over its liveness numbering,
   which holds every register of the body: allocators probe it for
   every blocked node and memory preference. *)
let temp_test live temps =
  let cpt = Liveness.compact live in
  let bits = Regbits.Set.create (Regbits.size cpt) in
  Reg.Tbl.iter
    (fun r () ->
      let i = Regbits.find_index cpt r in
      if i >= 0 then Regbits.Set.add bits i)
    temps;
  fun r ->
    let i = Regbits.find_index cpt r in
    i >= 0 && Regbits.Set.mem bits i

(* The one round loop every allocator shares: renumber, analyze, let the
   allocator color; on [Spill] insert spill code and go again.  Spill
   insertion keeps every register of the round one web, so rounds after
   the first rename without reaching definitions.  Slots are kept per
   round (newest first) and flattened once at the end.
   Neither webs nor spill insertion touches a label or an edge, so the
   loop forest of the input serves every round. *)
let drive ~name ?(rematerialize = false) f0 color =
  let f = Cfg.clone f0 in
  let loops = Loops.compute f in
  let rec round fn ~temps ~n ~spill_instrs ~slots =
    if n > max_rounds then raise (Failed (name ^ ": too many rounds"));
    let webs = if n = 1 then Webs.run fn else Webs.rename fn in
    let fn = webs.Webs.func in
    let temps = remap_temps webs temps in
    let a = analyze ~loops fn in
    match color a ~no_spill:(temp_test a.live temps) with
    | Colored color_of ->
        (* The liveness numbering holds every register of the body, each
           once.  An uncolored register is reported by its smallest id,
           so the message does not depend on the numbering's order. *)
        let cpt = Liveness.compact a.live in
        let alloc = Reg.Tbl.create 64 in
        let uncolored = ref max_int in
        for i = 0 to Regbits.size cpt - 1 do
          let r = Regbits.reg_at cpt i in
          if Reg.is_virtual r then
            match color_of r with
            | Some c -> Reg.Tbl.add alloc r c
            | None -> uncolored := min !uncolored r
        done;
        if !uncolored < max_int then
          raise
            (Failed
               (Printf.sprintf "%s: %s left uncolored" name
                  (Reg.to_string !uncolored)));
        let spill_slots = List.concat (List.rev slots) in
        { func = fn; alloc; rounds = n; spill_instrs; spill_slots }
    | Spill spilled ->
        let ins = Spill_insert.insert ~rematerialize fn spilled in
        round ins.Spill_insert.func ~temps:(add_spill_temps temps ins)
          ~n:(n + 1)
          ~spill_instrs:(spill_instrs + ins.Spill_insert.n_spill_instrs)
          ~slots:(ins.Spill_insert.slots :: slots)
  in
  round f ~temps:(Reg.Tbl.create 16) ~n:1 ~spill_instrs:0
    ~slots:[]

let allocate config (m : Machine.t) f0 =
  let color a ~no_spill =
    let g = a.graph in
    (match config.coalesce with
    | No_coalesce -> ()
    | Aggressive -> ignore (Coalesce.aggressive g)
    | Conservative -> ignore (Coalesce.conservative ~k:m.Machine.k g));
    let simp =
      Simplify.run config.mode ~k:m.Machine.k g
        ~spill_choice:(choose_victim a.costs g ~no_spill)
        ~never_spill:no_spill ()
    in
    if not (Reg.Set.is_empty simp.Simplify.forced_spills) then
      Spill (spill_clusters g a.fn simp.Simplify.forced_spills)
    else
      let sel =
        Color_select.run m g ~stack:simp.Simplify.stack ~order:config.order
          ~biased:config.biased
      in
      if not (Reg.Set.is_empty sel.Color_select.failed) then
        Spill (spill_clusters g a.fn sel.Color_select.failed)
      else Colored (Color_select.color_of sel g)
  in
  drive ~name:config.name f0 color
