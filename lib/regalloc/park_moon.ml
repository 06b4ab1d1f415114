let name = "optimistic"

let allocate (m : Machine.t) f0 =
  let k_regs cls = Machine.all m cls in
  let color (a : Alloc_common.analysis) ~temps =
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
      List.exists (fun w -> Reg.Tbl.mem temps w)
        (try Reg.Tbl.find groups r with Not_found -> [ r ])
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
    let forbidden_of r =
      Igraph.fold_adj g0 r ~init:Reg.Set.empty ~f:(fun acc nb ->
          match color_of nb with
          | Some c -> Reg.Set.add c acc
          | None -> acc)
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
      let forbidden =
        List.fold_left
          (fun acc w -> Reg.Set.union acc (forbidden_of w))
          Reg.Set.empty members
      in
      let cls =
        match members with
        | w :: _ -> Cfg.cls_of fn w
        | [] -> assert false
      in
      let free =
        List.filter (fun c -> not (Reg.Set.mem c forbidden)) (k_regs cls)
      in
      let vols, nonvols = List.partition (Machine.is_volatile m) free in
      match nonvols @ vols with
      | c :: _ -> List.iter (fun w -> Reg.Tbl.replace colors w c) members
      | [] -> (
          match members with
          | [ w ] -> spilled := Reg.Set.add w !spilled
          | _ ->
              (* Undo the coalesce: find the color covering the most
                 spill cost, color that primary partition, push the
                 rest to the bottom of the stack as singletons. *)
              let benefit_of c =
                List.filter
                  (fun w -> not (Reg.Set.mem c (forbidden_of w)))
                  members
                |> List.fold_left
                     (fun (ws, total) w ->
                       (w :: ws, total + Spill_cost.spill_cost costs w))
                     ([], 0)
              in
              let primary, _ =
                List.fold_left
                  (fun (best, best_b) c ->
                    let ws, b = benefit_of c in
                    (* Members must also not conflict with each other;
                       webs merged together never interfere, so the set
                       is internally consistent. *)
                    if b > best_b then ((c, ws), b) else (best, best_b))
                  ((Reg.phys cls 0, []), -1)
                  (k_regs cls)
              in
              let c, ws = primary in
              List.iter (fun w -> Reg.Tbl.replace colors w c) ws;
              List.iter
                (fun w ->
                  if not (List.exists (Reg.equal w) ws) then
                    Queue.add [ w ] work)
                members)
    done;
    if Reg.Set.is_empty !spilled then
      Alloc_common.Colored (Reg.Tbl.find_opt colors, ())
    else Alloc_common.Spill !spilled
  in
  fst (Alloc_common.drive ~name f0 color)

let allocator = Allocator.v ~name:"optimistic" ~label:"optimistic" allocate
