let name = "optimistic"

let allocate (m : Machine.t) f0 =
  let color (a : Alloc_common.analysis) ~no_spill =
    let fn = a.Alloc_common.fn and g0 = a.Alloc_common.graph in
    let g = Igraph.copy g0 in
    ignore (Coalesce.aggressive g);
    let costs = a.Alloc_common.costs in
    (* Member webs of every merge representative. *)
    let groups : Reg.t list Reg.Tbl.t = Reg.Tbl.create 64 in
    let add_member rep r =
      let cur = try Reg.Tbl.find groups rep with Not_found -> [] in
      Reg.Tbl.replace groups rep (r :: cur)
    in
    List.iter (fun r -> add_member (Igraph.alias g r) r) (Igraph.vnodes g0);
    (* Optimistic simplification of the merged graph. *)
    let no_spill r =
      List.exists no_spill (try Reg.Tbl.find groups r with Not_found -> [ r ])
    in
    let simp =
      Simplify.run Simplify.Optimistic ~k:m.Machine.k g
        ~never_spill:no_spill ()
        ~spill_choice:(Alloc_common.choose_victim costs g ~no_spill)
    in
    (* Web-level coloring against the uncoalesced graph. *)
    let colors : Reg.t Reg.Tbl.t = Reg.Tbl.create 64 in
    let color_of r =
      if Reg.is_phys r then Some r else Reg.Tbl.find_opt colors r
    in
    let spilled = ref Reg.Set.empty in
    (* Groups coalesced into a physical register never reach the select
       stack; fix their color up front. *)
    Reg.Tbl.iter
      (fun rep members ->
        if Reg.is_phys rep then
          List.iter (fun w -> Reg.Tbl.replace colors w rep) members)
      groups;
    (* Select work items: the member webs of a group that would like to
       share one register. *)
    let work = Queue.create () in
    List.iter
      (fun rep ->
        if Reg.is_virtual rep then
          Queue.add
            (try Reg.Tbl.find groups rep with Not_found -> [ rep ])
            work)
      simp.Simplify.stack;
    while not (Queue.is_empty work) do
      let members = Queue.pop work in
      (* Each member's free registers, screened once: the coloring
         below changes nothing they read. *)
      let frees =
        List.map (fun w -> (w, Color_select.free_mask m g0 color_of w)) members
      in
      let cls =
        match members with
        | w :: _ -> Cfg.cls_of fn w
        | [] -> assert false
      in
      let free =
        List.fold_left (fun acc (_, f) -> acc land f) (Machine.file_mask m) frees
      in
      match Machine.pick ~prefer:(Machine.nonvolatile_mask m) free with
      | -1 -> (
          match members with
          | [ w ] -> spilled := Reg.Set.add w !spilled
          | _ ->
              (* Undo the coalesce: find the color covering the most
                 spill cost, color that primary partition, push the
                 rest to the bottom of the stack as singletons.
                 Members merged together never interfere, so the
                 primary partition is internally consistent. *)
              let benefit j =
                List.fold_left
                  (fun total (w, f) ->
                    if f land (1 lsl j) <> 0 then
                      total + Spill_cost.spill_cost costs w
                    else total)
                  0 frees
              in
              let best = ref 0 and best_b = ref (-1) in
              for j = 0 to m.Machine.k - 1 do
                let b = benefit j in
                if b > !best_b then begin
                  best := j;
                  best_b := b
                end
              done;
              let c = Reg.phys cls !best in
              List.iter
                (fun (w, f) ->
                  if f land (1 lsl !best) <> 0 then Reg.Tbl.replace colors w c
                  else Queue.add [ w ] work)
                frees)
      | j ->
          let c = Reg.phys cls j in
          List.iter (fun w -> Reg.Tbl.replace colors w c) members
    done;
    if Reg.Set.is_empty !spilled then
      Alloc_common.Colored (Reg.Tbl.find_opt colors)
    else Alloc_common.Spill !spilled
  in
  Alloc_common.drive ~name f0 color

let allocator = Allocator.v ~name:"optimistic" ~label:"optimistic" allocate
