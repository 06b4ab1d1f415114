let run (f : Cfg.func) =
  (* The first prepare stage to make fresh names: working on a clone
     leaves the caller's counters and class table as they were. *)
  let f = Cfg.clone f in
  let dom = Dominance.compute f in
  let live = Liveness.compute f in
  let labels = Dominance.labels dom in
  let blocks_tbl = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace blocks_tbl l (Cfg.block f l)) labels;
  (* Definition blocks of every virtual register. *)
  let def_blocks = Reg.Tbl.create 64 in
  Cfg.iter_instrs f (fun b i ->
      List.iter
        (fun r ->
          if Reg.is_virtual r then begin
            let cur = try Reg.Tbl.find def_blocks r with Not_found -> [] in
            if not (List.mem b.Cfg.label cur) then
              Reg.Tbl.replace def_blocks r (b.Cfg.label :: cur)
          end)
        (Instr.defs i.Instr.kind));
  (* Phi placement at iterated dominance frontiers, pruned by liveness. *)
  let phis : (Instr.label, Reg.t list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace phis l (ref [])) labels;
  Reg.Tbl.iter
    (fun v defs ->
      let work = Queue.create () in
      let on_frontier = Hashtbl.create 8 in
      List.iter (fun l -> Queue.add l work) defs;
      while not (Queue.is_empty work) do
        let l = Queue.pop work in
        List.iter
          (fun y ->
            if
              (not (Hashtbl.mem on_frontier y))
              && Reg.Set.mem v (Liveness.live_in live y)
            then begin
              Hashtbl.replace on_frontier y ();
              let cell = Hashtbl.find phis y in
              cell := v :: !cell;
              if not (List.mem y defs) then Queue.add y work
            end)
          (Dominance.frontier dom l)
      done)
    def_blocks;
  (* Renaming along the dominator tree.  Version stacks are indexed by
     the original register's index in the liveness numbering, which
     covers every register of [f]; the fresh versions made below are
     never keys. *)
  let cpt = Liveness.compact live in
  let stacks : Reg.t list array = Array.make (Regbits.size cpt) [] in
  let top v =
    match stacks.(Regbits.index cpt v) with
    | n :: _ -> n
    | [] -> v (* use without reaching definition *)
  in
  let push v n =
    let i = Regbits.index cpt v in
    stacks.(i) <- n :: stacks.(i)
  in
  let pop v =
    let i = Regbits.index cpt v in
    match stacks.(i) with _ :: rest -> stacks.(i) <- rest | [] -> assert false
  in
  let fresh_version v =
    if Reg.is_virtual v then Cfg.fresh_reg f (Cfg.cls_of f v) else v
  in
  (* Renamed phi destinations per block: (original var, new version). *)
  let phi_dsts : (Instr.label, (Reg.t * Reg.t) list) Hashtbl.t =
    Hashtbl.create 16
  in
  (* Phi-source contributions: (block, original var) -> (pred, version). *)
  let contribs : (Instr.label * Reg.t, (Instr.label * Reg.t) list ref)
      Hashtbl.t =
    Hashtbl.create 16
  in
  let contribution s v pred version =
    let key = (s, v) in
    let cell =
      match Hashtbl.find_opt contribs key with
      | Some c -> c
      | None ->
          let c = ref [] in
          Hashtbl.replace contribs key c;
          c
    in
    cell := (pred, version) :: !cell
  in
  let new_body : (Instr.label, Instr.t array) Hashtbl.t = Hashtbl.create 16 in
  let rec walk l =
    let b = Hashtbl.find blocks_tbl l in
    let popped = ref [] in
    let dsts =
      List.map
        (fun v ->
          let n = fresh_version v in
          push v n;
          popped := v :: !popped;
          (v, n))
        !(Hashtbl.find phis l)
    in
    Hashtbl.replace phi_dsts l dsts;
    let body =
      Array.map
        (fun i ->
          let kind = Instr.map_uses top i.Instr.kind in
          let kind =
            Instr.map_defs
              (fun d ->
                if Reg.is_virtual d then begin
                  let n = fresh_version d in
                  push d n;
                  popped := d :: !popped;
                  n
                end
                else d)
              kind
          in
          { i with Instr.kind })
        b.Cfg.instrs
    in
    Hashtbl.replace new_body l body;
    List.iter
      (fun s ->
        List.iter (fun v -> contribution s v l (top v)) !(Hashtbl.find phis s))
      (Cfg.successors b);
    List.iter walk (Dominance.children dom l);
    List.iter pop !popped
  in
  walk f.Cfg.entry;
  let blocks =
    List.map
      (fun l ->
        let phi_instrs =
          List.map
            (fun (v, dst) ->
              let srcs =
                match Hashtbl.find_opt contribs (l, v) with
                | Some c -> !c
                | None -> []
              in
              Cfg.instr f (Instr.Phi { dst; srcs }))
            (Hashtbl.find phi_dsts l)
        in
        {
          Cfg.label = l;
          instrs =
            Array.append (Array.of_list phi_instrs) (Hashtbl.find new_body l);
        })
      labels
  in
  Cfg.with_blocks f blocks
