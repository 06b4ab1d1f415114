let name = "priority-based"

let allocate (m : Machine.t) f0 =
  let color (a : Alloc_common.analysis) ~temps =
    let g = a.Alloc_common.graph in
    let costs = a.Alloc_common.costs in
    (* Chow-Hennessy priority: savings per unit of range size.  Spill
       temporaries must never spill again, so they outrank everything
       and are colored first.  Ties break on the register id so the
       coloring order does not depend on graph iteration order. *)
    let priority r =
      if Reg.Tbl.mem temps r then infinity
      else
        let info = Spill_cost.info costs r in
        float_of_int info.Spill_cost.spill_cost
        /. float_of_int (max 1 (info.Spill_cost.n_defs + info.Spill_cost.n_uses))
    in
    let k = m.Machine.k in
    let constrained, unconstrained =
      List.partition (fun r -> Igraph.degree g r >= k) (Igraph.vnodes g)
    in
    let order =
      List.sort
        (fun a b ->
          match compare (priority b) (priority a) with
          | 0 -> Reg.compare a b
          | c -> c)
        constrained
      @ List.sort Reg.compare unconstrained
    in
    let colors = Reg.Tbl.create 64 in
    let color_of r =
      if Reg.is_phys r then Some r else Reg.Tbl.find_opt colors r
    in
    let spilled = ref Reg.Set.empty in
    List.iter
      (fun r ->
        let forbidden =
          Igraph.fold_adj g r ~init:Reg.Set.empty ~f:(fun acc nb ->
              match color_of nb with
              | Some c -> Reg.Set.add c acc
              | None -> acc)
        in
        let free =
          List.filter
            (fun c -> not (Reg.Set.mem c forbidden))
            (Machine.all m (Igraph.cls g r))
        in
        let vol, nonvol = List.partition (Machine.is_volatile m) free in
        match nonvol @ vol with
        | c :: _ -> Reg.Tbl.replace colors r c
        | [] ->
            if Reg.Tbl.mem temps r then
              raise (Alloc_common.Failed (name ^ ": spill temporary blocked"))
            else spilled := Reg.Set.add r !spilled)
      order;
    if Reg.Set.is_empty !spilled then
      Alloc_common.Colored (Reg.Tbl.find_opt colors, ())
    else Alloc_common.Spill !spilled
  in
  fst (Alloc_common.drive ~name f0 color)

let allocator = Allocator.v ~name:"priority" ~label:"priority-based" allocate
