let run (f : Cfg.func) =
  (* The first prepare stage to make fresh names: working on a clone
     leaves the caller's counters and class table as they were. *)
  let f = Cfg.clone f in
  let dom = Dominance.compute f in
  let live = Liveness.compute f in
  let labels = Dominance.labels dom in
  let by_label = Cfg.blocks_by_label f in
  let bound = Array.length by_label in
  (* Per-register facts are indexed by the liveness numbering, which
     covers every register of [f]; the fresh versions made below are
     never keys. *)
  let cpt = Liveness.compact live in
  (* Definition blocks of every virtual register, newest first. *)
  let def_blocks = Array.make (Regbits.size cpt) [] in
  Cfg.iter_instrs f (fun b i ->
      List.iter
        (fun r ->
          if Reg.is_virtual r then
            let v = Regbits.index cpt r in
            match def_blocks.(v) with
            | l :: _ when l = b.Cfg.label -> ()
            | cur -> def_blocks.(v) <- b.Cfg.label :: cur)
        (Instr.defs i.Instr.kind));
  (* Phi placement at iterated dominance frontiers, pruned by liveness,
     one variable at a time in index order; each phi goes in front of
     its block's earlier ones.  [on_frontier.(y)] holds the index of the
     last variable given a phi at [y]. *)
  let phis = Array.make bound [] in
  let on_frontier = Array.make bound (-1) in
  for vi = 0 to Array.length def_blocks - 1 do
    let defs = def_blocks.(vi) in
    let v = Regbits.reg_at cpt vi in
    let work = Queue.create () in
    List.iter (fun l -> Queue.add l work) defs;
    while not (Queue.is_empty work) do
      let l = Queue.pop work in
      List.iter
        (fun y ->
          if on_frontier.(y) <> vi && Liveness.live_in_mem live y v then begin
            on_frontier.(y) <- vi;
            phis.(y) <- v :: phis.(y);
            if not (List.mem y defs) then Queue.add y work
          end)
        (Dominance.frontier dom l)
    done
  done;
  (* Renaming along the dominator tree, one version stack per original
     register. *)
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
  (* Renamed phi destinations per block, (original var, new version) in
     [phis] order; [phi_srcs.(l).(j)] gathers the (pred, version)
     sources of the [j]th phi of [l]. *)
  let phi_dsts = Array.make bound [] in
  let phi_srcs = Array.make bound [||] in
  List.iter (fun l -> phi_srcs.(l) <- Array.make (List.length phis.(l)) []) labels;
  let new_body = Array.make bound [||] in
  let rec walk l =
    let b = Option.get by_label.(l) in
    let popped = ref [] in
    phi_dsts.(l) <-
      List.map
        (fun v ->
          let n = fresh_version v in
          push v n;
          popped := v :: !popped;
          (v, n))
        phis.(l);
    new_body.(l) <-
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
        b.Cfg.instrs;
    List.iter
      (fun s ->
        let srcs = phi_srcs.(s) in
        List.iteri (fun j v -> srcs.(j) <- (l, top v) :: srcs.(j)) phis.(s))
      (Cfg.successors b);
    List.iter walk (Dominance.children dom l);
    List.iter pop !popped
  in
  walk f.Cfg.entry;
  let blocks =
    List.map
      (fun l ->
        let srcs = phi_srcs.(l) in
        let phi_instrs =
          List.mapi
            (fun j (_, dst) -> Cfg.instr f (Instr.Phi { dst; srcs = srcs.(j) }))
            phi_dsts.(l)
        in
        {
          Cfg.label = l;
          instrs = Array.append (Array.of_list phi_instrs) new_body.(l);
        })
      labels
  in
  Cfg.with_blocks f blocks
