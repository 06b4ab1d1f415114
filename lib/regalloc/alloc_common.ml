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

let analyze fn =
  let loops = Loops.compute fn in
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
   temporaries the new spill code introduced. *)
let add_spill_temps temps (ins : Spill_insert.result) =
  Reg.Set.iter
    (fun r ->
      if r >= ins.Spill_insert.temp_watermark then Reg.Tbl.replace temps r ())
    (Cfg.all_vregs ins.Spill_insert.func);
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
   on the round's first blocked step and shared by the later ones. *)
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

type 'x step = Colored of (Reg.t -> Reg.t option) * 'x | Spill of Reg.Set.t

(* The one round loop every allocator shares: renumber, analyze, let the
   allocator color; on [Spill] insert spill code and go again.  Slots
   are kept per round (newest first) and flattened once at the end. *)
let drive ~name ?(rematerialize = false) f0 color =
  let rec round fn ~temps ~n ~spill_instrs ~slots =
    if n > max_rounds then raise (Failed (name ^ ": too many rounds"));
    let webs = Webs.run fn in
    let fn = webs.Webs.func in
    let temps = remap_temps webs temps in
    match color (analyze fn) ~temps with
    | Colored (color_of, x) ->
        let alloc = Reg.Tbl.create 64 in
        Reg.Set.iter
          (fun r ->
            match color_of r with
            | Some c -> Reg.Tbl.replace alloc r c
            | None ->
                raise
                  (Failed
                     (Printf.sprintf "%s: %s left uncolored" name
                        (Reg.to_string r))))
          (Cfg.all_vregs fn);
        let spill_slots = List.concat (List.rev slots) in
        ({ func = fn; alloc; rounds = n; spill_instrs; spill_slots }, x)
    | Spill spilled ->
        let ins = Spill_insert.insert ~rematerialize fn spilled in
        round ins.Spill_insert.func ~temps:(add_spill_temps temps ins)
          ~n:(n + 1)
          ~spill_instrs:(spill_instrs + ins.Spill_insert.n_spill_instrs)
          ~slots:(ins.Spill_insert.slots :: slots)
  in
  round (Cfg.clone f0) ~temps:(Reg.Tbl.create 16) ~n:1 ~spill_instrs:0
    ~slots:[]

let allocate config (m : Machine.t) f0 =
  let color a ~temps =
    let g = a.graph in
    (match config.coalesce with
    | No_coalesce -> ()
    | Aggressive -> ignore (Coalesce.aggressive g)
    | Conservative -> ignore (Coalesce.conservative ~k:m.Machine.k g));
    let no_spill r = Reg.Tbl.mem temps r in
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
      else Colored (Color_select.color_of sel g, ())
  in
  fst (drive ~name:config.name f0 color)

let check_complete (m : Machine.t) (res : result) =
  let fn = res.func in
  let lookup r =
    if Reg.is_phys r then r
    else
      match Reg.Tbl.find_opt res.alloc r with
      | Some c -> c
      | None -> raise (Failed (Reg.to_string r ^ " unallocated"))
  in
  Reg.Set.iter
    (fun r ->
      let c = lookup r in
      if not (Reg.is_phys c) then raise (Failed "allocated to virtual");
      if not (Machine.is_allocatable m c) then
        raise (Failed "allocated outside the machine's file");
      if Cfg.cls_of fn r <> Reg.phys_cls c then
        raise (Failed "allocated outside its class"))
    (Cfg.all_vregs fn);
  let live = Liveness.compute fn in
  let g = Igraph.build fn live in
  List.iter
    (fun r ->
      let c = lookup r in
      Igraph.iter_adj g r (fun n ->
          if Reg.equal (lookup n) c then
            raise
              (Failed
                 (Printf.sprintf "%s and %s interfere but share %s"
                    (Reg.to_string r) (Reg.to_string n) (Reg.to_string c)))))
    (Igraph.vnodes g)
