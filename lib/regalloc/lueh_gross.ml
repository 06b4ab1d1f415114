let name = "aggressive+volatility"

type benefits = { volatile_benefit : int; nonvolatile_benefit : int }

let no_benefit = { volatile_benefit = 0; nonvolatile_benefit = 0 }

(* Removable nodes, ordered by (priority, rank). *)
module Ready = Set.Make (struct
  type t = int * int

  let compare (p1, r1) (p2, r2) =
    let c = Int.compare p1 p2 in
    if c <> 0 then c else Int.compare r1 r2
end)

(* Frequency-weighted number of calls each register is live across. *)
let weighted_crossings (fn : Cfg.func) live ~loops =
  let crossings = Reg.Tbl.create 64 in
  List.iter
    (fun (b : Cfg.block) ->
      let freq = Loops.frequency loops b.Cfg.label in
      ignore
        (Liveness.fold_block_backward live b ~init:()
           ~f:(fun () ~live_out i ->
             match i.Instr.kind with
             | Instr.Call { dst; _ } ->
                 let across =
                   match dst with
                   | Some d -> Reg.Set.remove d live_out
                   | None -> live_out
                 in
                 Reg.Set.iter
                   (fun r ->
                     if Reg.is_virtual r then begin
                       let cur =
                         try Reg.Tbl.find crossings r with Not_found -> 0
                       in
                       Reg.Tbl.replace crossings r (cur + freq)
                     end)
                   across
             | _ -> ())))
    fn.Cfg.blocks;
  crossings

let benefits_of fn live ~costs ~loops =
  let crossings = weighted_crossings fn live ~loops in
  let tbl = Reg.Tbl.create 64 in
  Reg.Set.iter
    (fun r ->
      let spill = Spill_cost.spill_cost costs r in
      let crossed = try Reg.Tbl.find crossings r with Not_found -> 0 in
      Reg.Tbl.replace tbl r
        {
          volatile_benefit = spill - (Costs.save_restore * crossed);
          nonvolatile_benefit = spill - Costs.callee_save;
        })
    (Cfg.all_vregs fn);
  tbl

let compute_benefits (_m : Machine.t) (fn : Cfg.func) =
  let loops = Loops.compute fn in
  benefits_of fn (Liveness.compute fn)
    ~costs:(Spill_cost.compute ~loops fn)
    ~loops

let allocate (m : Machine.t) f0 =
  let color (a : Alloc_common.analysis) ~temps =
    let fn = a.Alloc_common.fn and live = a.Alloc_common.live in
    let g = a.Alloc_common.graph in
    ignore (Coalesce.aggressive g);
    let costs = a.Alloc_common.costs in
    let benefits = benefits_of fn live ~costs ~loops:a.Alloc_common.loops in
    (* Benefits of a merge representative: sum over its members, in one
       pass over the table. *)
    let group_benefit =
      let sums = Reg.Tbl.create 64 in
      Reg.Tbl.iter
        (fun r br ->
          let rep = Igraph.alias g r in
          let acc =
            Option.value (Reg.Tbl.find_opt sums rep) ~default:no_benefit
          in
          Reg.Tbl.replace sums rep
            {
              volatile_benefit = acc.volatile_benefit + br.volatile_benefit;
              nonvolatile_benefit =
                acc.nonvolatile_benefit + br.nonvolatile_benefit;
            })
        benefits;
      fun rep -> Option.value (Reg.Tbl.find_opt sums rep) ~default:no_benefit
    in
    let priority rep =
      let b = group_benefit rep in
      max b.volatile_benefit b.nonvolatile_benefit
    in
    (* Preference decision: per call site and class, only the R most
       beneficial crossing ranges keep the non-volatile preference. *)
    let forced_volatile = Reg.Tbl.create 16 in
    let n_nonvol = m.Machine.k - m.Machine.n_volatile in
    List.iter
      (fun (b : Cfg.block) ->
        ignore
          (Liveness.fold_block_backward live b ~init:()
             ~f:(fun () ~live_out i ->
               match i.Instr.kind with
               | Instr.Call { dst; _ } ->
                   let across =
                     (match dst with
                     | Some d -> Reg.Set.remove d live_out
                     | None -> live_out)
                     |> Reg.Set.filter Reg.is_virtual
                     |> Reg.Set.elements
                     |> List.map (Igraph.alias g)
                     |> List.sort_uniq Reg.compare
                   in
                   List.iter
                     (fun cls ->
                       let ranked =
                         List.filter (fun r -> Igraph.cls g r = cls) across
                         |> List.sort (fun a b ->
                                compare
                                  (group_benefit b).nonvolatile_benefit
                                  (group_benefit a).nonvolatile_benefit)
                       in
                       List.iteri
                         (fun idx r ->
                           if idx >= n_nonvol then
                             Reg.Tbl.replace forced_volatile r ())
                         ranked)
                     [ Reg.Int_class; Reg.Float_class ]
               | _ -> ())))
      fn.Cfg.blocks;
    (* Merge representatives holding a spill temporary. *)
    let temp_reps = Reg.Tbl.create 16 in
    Reg.Tbl.iter
      (fun w () -> Reg.Tbl.replace temp_reps (Igraph.alias g w) ())
      temps;
    let no_spill rep = Reg.Tbl.mem temp_reps rep in
    (* Benefit-driven Chaitin simplification: among removable nodes,
       push the lowest-priority one first, ties going to the earliest
       in [order], the fold order of a register table filled with the
       nodes.  That order decides ties, so the output depends on it.
       Removing a key never reorders a hash table's other keys, so
       ranking the nodes once is enough, and the removable nodes wait
       in a set keyed by (priority, rank).  A node joins it once, when
       its degree drops below k; degrees only fall. *)
    let k = m.Machine.k in
    let order =
      let present = Reg.Tbl.create 64 in
      List.iter (fun r -> Reg.Tbl.replace present r ()) (Igraph.vnodes g);
      Array.of_list (Reg.Tbl.fold (fun r () acc -> r :: acc) present [])
    in
    let rank = Array.make (Regbits.size (Igraph.compact g)) (-1) in
    Array.iteri (fun i r -> rank.(Igraph.index_of g r) <- i) order;
    let degree = Array.map (Igraph.degree g) order in
    let present = Array.make (Array.length order) true in
    let prio = Array.map priority order in
    let ready = ref Ready.empty in
    let make_ready i = ready := Ready.add (prio.(i), i) !ready in
    Array.iteri (fun i d -> if d < k then make_ready i) degree;
    let stack = ref [] in
    let forced_spills = ref Reg.Set.empty in
    let remove i =
      present.(i) <- false;
      Igraph.iter_adj_idx g (Igraph.index_of g order.(i)) (fun nb ->
          let j = rank.(nb) in
          if j >= 0 && present.(j) then begin
            let d = degree.(j) in
            degree.(j) <- d - 1;
            if d = k then make_ready j
          end)
    in
    (* Only blocked nodes remain: the first one in [order] with the
       lowest merged cost / degree. *)
    let spill_metric =
      let merged = lazy (Spill_cost.merged_spill_costs costs g) in
      fun i ->
        let r = order.(i) in
        if no_spill r then infinity
        else
          float_of_int (Lazy.force merged r)
          /. float_of_int (max 1 degree.(i))
    in
    for _ = 1 to Array.length order do
      match Ready.min_elt_opt !ready with
      | Some ((_, i) as e) ->
          ready := Ready.remove e !ready;
          stack := order.(i) :: !stack;
          remove i
      | None ->
          let victim = ref (-1) and victim_m = ref infinity in
          Array.iteri
            (fun i p ->
              if p then begin
                let m = spill_metric i in
                if !victim < 0 || m < !victim_m then begin
                  victim := i;
                  victim_m := m
                end
              end)
            present;
          let r = order.(!victim) in
          (* A spill temporary's range is already minimal; spilling it
             would reproduce the same code forever.  Remove it
             optimistically instead — select will find it a register. *)
          if no_spill r then stack := r :: !stack
          else forced_spills := Reg.Set.add r !forced_spills;
          remove !victim
    done;
    let respill spilled =
      Alloc_common.Spill (Alloc_common.spill_clusters g fn spilled)
    in
    if not (Reg.Set.is_empty !forced_spills) then respill !forced_spills
    else begin
      (* Select: choose volatile / non-volatile / memory by benefit. *)
      let colors = Reg.Tbl.create 64 in
      let color_of r =
        let rep = Igraph.alias g r in
        if Reg.is_phys rep then Some rep else Reg.Tbl.find_opt colors rep
      in
      let active_spills = ref Reg.Set.empty in
      List.iter
        (fun rep ->
          let forbidden =
            Igraph.fold_adj g rep ~init:Reg.Set.empty ~f:(fun acc nb ->
                match color_of nb with
                | Some c -> Reg.Set.add c acc
                | None -> acc)
          in
          let cls = Igraph.cls g rep in
          let free =
            List.filter
              (fun c -> not (Reg.Set.mem c forbidden))
              (Machine.all m cls)
          in
          let free_vol, free_nonvol =
            List.partition (Machine.is_volatile m) free
          in
          let b = group_benefit rep in
          let wants_nonvol =
            b.nonvolatile_benefit > b.volatile_benefit
            && not (Reg.Tbl.mem forced_volatile rep)
          in
          let ordered =
            if wants_nonvol then free_nonvol @ free_vol
            else free_vol @ free_nonvol
          in
          let prefers_memory =
            b.volatile_benefit <= 0 && b.nonvolatile_benefit <= 0
            && not (no_spill rep)
          in
          if prefers_memory then
            active_spills := Reg.Set.add rep !active_spills
          else
            match ordered with
            | c :: _ -> Reg.Tbl.replace colors rep c
            | [] ->
                (* Chaitin simplification guarantees a free register. *)
                raise
                  (Alloc_common.Failed
                     (name ^ ": no color for " ^ Reg.to_string rep)))
        !stack;
      if not (Reg.Set.is_empty !active_spills) then respill !active_spills
      else Alloc_common.Colored (color_of, ())
    end
  in
  fst (Alloc_common.drive ~name f0 color)

let allocator =
  Allocator.v ~name:"lueh-gross" ~label:"aggressive+volatility" allocate
