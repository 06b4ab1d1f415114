let name = "priority-based"

let allocate (m : Machine.t) f0 =
  let color (a : Alloc_common.analysis) ~no_spill =
    let g = a.Alloc_common.graph in
    let costs = a.Alloc_common.costs in
    (* Chow-Hennessy priority: savings per unit of range size.  Spill
       temporaries must never spill again, so they outrank everything
       and are colored first.  Ties break on the register id so the
       coloring order does not depend on graph iteration order. *)
    let priority r =
      if no_spill r then infinity
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
        match
          Machine.pick ~prefer:(Machine.nonvolatile_mask m)
            (Color_select.free_mask m g color_of r)
        with
        | -1 ->
            if no_spill r then
              raise (Alloc_common.Failed (name ^ ": spill temporary blocked"))
            else spilled := Reg.Set.add r !spilled
        | j -> Reg.Tbl.replace colors r (Reg.phys (Igraph.cls g r) j))
      order;
    if Reg.Set.is_empty !spilled then
      Alloc_common.Colored (Reg.Tbl.find_opt colors)
    else Alloc_common.Spill !spilled
  in
  Alloc_common.drive ~name f0 color

let allocator = Allocator.v ~name:"priority" ~label:"priority-based" allocate
