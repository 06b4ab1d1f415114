let name = "aggressive+volatility"

let no_benefit = { Strength.vol = 0; nonvol = 0 }

(* Removable nodes, ordered by (priority, rank). *)
module Ready = Set.Make (struct
  type t = int * int

  let compare (p1, r1) (p2, r2) =
    let c = Int.compare p1 p2 in
    if c <> 0 then c else Int.compare r1 r2
end)

let allocate (m : Machine.t) f0 =
  let color (a : Alloc_common.analysis) ~no_spill =
    let fn = a.Alloc_common.fn and live = a.Alloc_common.live in
    let g = a.Alloc_common.graph in
    ignore (Coalesce.aggressive g);
    let costs = a.Alloc_common.costs in
    (* Per-node facts: arrays over the compact numbering, by root index. *)
    let cpt = Igraph.compact g in
    let n = Regbits.size cpt in
    let at rep = Igraph.index_of g rep in
    (* Benefits of a merge representative: the Appendix's volatility
       weights ({!Strength.volatility}) summed over its members. *)
    let group_benefit =
      let str = Strength.of_analysis a in
      let sums = Array.make n no_benefit in
      for i = 0 to n - 1 do
        let r = Regbits.reg_at cpt i and j = Igraph.root_idx g i in
        if Reg.is_virtual r then
          let w = Strength.volatility str r in
          sums.(j) <-
            {
              Strength.vol = sums.(j).Strength.vol + w.Strength.vol;
              nonvol = sums.(j).Strength.nonvol + w.Strength.nonvol;
            }
      done;
      fun rep -> sums.(at rep)
    in
    let priority rep = Strength.best (group_benefit rep) in
    (* Preference decision: per call site and class, only the R most
       beneficial crossing ranges keep the non-volatile preference. *)
    let forced_volatile = Array.make n false in
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
                                compare (group_benefit b).Strength.nonvol
                                  (group_benefit a).Strength.nonvol)
                       in
                       List.iteri
                         (fun idx r ->
                           if idx >= n_nonvol then
                             forced_volatile.(at r) <- true)
                         ranked)
                     [ Reg.Int_class; Reg.Float_class ]
               | _ -> ())))
      fn.Cfg.blocks;
    (* Merge representatives holding a spill temporary. *)
    let temp_rep = Array.make n false in
    for i = 0 to n - 1 do
      if no_spill (Regbits.reg_at cpt i) then
        temp_rep.(Igraph.root_idx g i) <- true
    done;
    let no_spill rep = temp_rep.(at rep) in
    (* Benefit-driven Chaitin simplification: among removable nodes,
       push the lowest-priority one first, ties going to the lowest
       compact index.  The removable nodes wait in a set keyed by
       (priority, index); a node joins it once, when its degree drops
       below k, since degrees only fall. *)
    let k = m.Machine.k in
    let present = Array.make n false in
    let degree = Array.make n 0 in
    let prio = Array.make n 0 in
    let ready = ref Ready.empty in
    let make_ready i = ready := Ready.add (prio.(i), i) !ready in
    let nodes = Igraph.vnodes g in
    List.iter
      (fun r ->
        let i = Igraph.index_of g r in
        present.(i) <- true;
        degree.(i) <- Igraph.degree_idx g i;
        prio.(i) <- priority r;
        if degree.(i) < k then make_ready i)
      nodes;
    let stack = ref [] in
    let forced_spills = ref Reg.Set.empty in
    let remove i =
      present.(i) <- false;
      Igraph.iter_adj_idx g i (fun j ->
          if present.(j) then begin
            let d = degree.(j) in
            degree.(j) <- d - 1;
            if d = k then make_ready j
          end)
    in
    (* Only blocked nodes remain: the lowest-indexed one with the
       lowest merged cost / degree. *)
    let spill_metric =
      let merged = lazy (Spill_cost.merged_spill_costs costs g) in
      fun i ->
        if temp_rep.(i) then infinity
        else
          float_of_int (Lazy.force merged (Igraph.reg_of g i))
          /. float_of_int (max 1 degree.(i))
    in
    for _ = 1 to List.length nodes do
      match Ready.min_elt_opt !ready with
      | Some ((_, i) as e) ->
          ready := Ready.remove e !ready;
          stack := Igraph.reg_of g i :: !stack;
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
          let r = Igraph.reg_of g !victim in
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
          let b = group_benefit rep in
          let wants_nonvol =
            b.Strength.nonvol > b.Strength.vol
            && not forced_volatile.(at rep)
          in
          let prefers_memory =
            b.Strength.vol <= 0 && b.Strength.nonvol <= 0
            && not (no_spill rep)
          in
          if prefers_memory then
            active_spills := Reg.Set.add rep !active_spills
          else
            let prefer =
              if wants_nonvol then Machine.nonvolatile_mask m
              else Machine.volatile_mask m
            in
            match
              Machine.pick ~prefer (Color_select.free_mask m g color_of rep)
            with
            | -1 ->
                (* Chaitin simplification guarantees a free register. *)
                raise
                  (Alloc_common.Failed
                     (name ^ ": no color for " ^ Reg.to_string rep))
            | j -> Reg.Tbl.replace colors rep (Reg.phys (Igraph.cls g rep) j))
        !stack;
      if not (Reg.Set.is_empty !active_spills) then respill !active_spills
      else Alloc_common.Colored color_of
    end
  in
  Alloc_common.drive ~name f0 color

let allocator =
  Allocator.v ~name:"lueh-gross" ~label:"aggressive+volatility" allocate
