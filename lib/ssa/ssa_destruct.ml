let sequentialize ~fresh copies =
  (* Drop self copies; they are no-ops. *)
  let copies = List.filter (fun (d, s) -> not (Reg.equal d s)) copies in
  let rec go acc copies =
    match copies with
    | [] -> List.rev acc
    | _ -> (
        let is_pending_src r = List.exists (fun (_, s) -> Reg.equal s r) copies in
        match List.find_opt (fun (d, _) -> not (is_pending_src d)) copies with
        | Some ((d, s) as c) ->
            let rest = List.filter (fun c' -> c' != c) copies in
            go ((d, s) :: acc) rest
        | None ->
            (* Every destination is also a pending source: the remaining
               copies form permutation cycles.  Break one by saving a
               destination into a temporary. *)
            let (d, s), rest =
              match copies with
              | c :: rest -> (c, rest)
              | [] -> assert false
            in
            let t = fresh d in
            let rest =
              List.map
                (fun (d', s') -> if Reg.equal s' d then (d', t) else (d', s'))
                rest
            in
            go ((d, s) :: (t, d) :: acc) rest)
  in
  go [] copies

(* Split critical edges (predecessor with several successors into a
   block with several predecessors) so phi copies can sit on the edge. *)
let split_critical_edges (f : Cfg.func) =
  let preds = Cfg.predecessors f in
  let n_preds l = List.length preds.(l) in
  let new_blocks = ref [] in
  (* [split.(p)] pairs each successor [s] of [p] whose edge was split
     with the label of the block splitting it; phi sources are
     retargeted with it below. *)
  let split : (Instr.label * Instr.label) list array =
    Array.make (Array.length preds) []
  in
  let blocks =
    List.map
      (fun b ->
        match (Cfg.terminator b).Instr.kind with
        | Instr.Branch { cond; ifso; ifnot } ->
            let reroute target =
              if n_preds target > 1 then begin
                let p = b.Cfg.label in
                match List.assoc_opt target split.(p) with
                | Some m -> m
                | None ->
                    let m = Cfg.fresh_label f in
                    split.(p) <- (target, m) :: split.(p);
                    new_blocks :=
                      { Cfg.label = m; instrs = [| Cfg.instr f (Instr.Jump target) |] }
                      :: !new_blocks;
                    m
              end
              else target
            in
            let ifso' = reroute ifso and ifnot' = reroute ifnot in
            if ifso' = ifso && ifnot' = ifnot then b
            else
              let instrs =
                Array.map
                  (fun i ->
                    if Instr.is_terminator i.Instr.kind then
                      {
                        i with
                        Instr.kind =
                          Instr.Branch { cond; ifso = ifso'; ifnot = ifnot' };
                      }
                    else i)
                  b.Cfg.instrs
              in
              { b with Cfg.instrs }
        | _ -> b)
      f.Cfg.blocks
  in
  (* Retarget phi sources across split edges. *)
  let blocks =
    List.map
      (fun b ->
        let instrs =
          Array.map
            (fun i ->
              match i.Instr.kind with
              | Instr.Phi { dst; srcs } ->
                  let srcs =
                    List.map
                      (fun (p, r) ->
                        match List.assoc_opt b.Cfg.label split.(p) with
                        | Some m -> (m, r)
                        | None -> (p, r))
                      srcs
                  in
                  { i with Instr.kind = Instr.Phi { dst; srcs } }
              | _ -> i)
            b.Cfg.instrs
        in
        { b with Cfg.instrs })
      blocks
  in
  Cfg.with_blocks f (blocks @ List.rev !new_blocks)

let run (f : Cfg.func) =
  let f = split_critical_edges f in
  (* Per-predecessor parallel copies gathered from all phis, newest
     first. *)
  let edge_copies = Array.make (Cfg.label_bound f) [] in
  List.iter
    (fun b ->
      Array.iter
        (fun i ->
          match i.Instr.kind with
          | Instr.Phi { dst; srcs } ->
              List.iter
                (fun (p, s) -> edge_copies.(p) <- (dst, s) :: edge_copies.(p))
                srcs
          | _ -> ())
        b.Cfg.instrs)
    f.Cfg.blocks;
  let fresh r = Cfg.fresh_reg f (Cfg.cls_of f r) in
  let blocks =
    List.map
      (fun b ->
        let instrs =
          List.filter
            (fun i ->
              match i.Instr.kind with Instr.Phi _ -> false | _ -> true)
            (Array.to_list b.Cfg.instrs)
        in
        let instrs =
          match edge_copies.(b.Cfg.label) with
          | [] -> instrs
          | copies ->
              let moves =
                sequentialize ~fresh (List.rev copies)
                |> List.map (fun (dst, src) ->
                       Cfg.instr f (Instr.Move { dst; src }))
              in
              (* Insert before the terminator. *)
              let rec weave = function
                | [ t ] when Instr.is_terminator t.Instr.kind ->
                    moves @ [ t ]
                | i :: rest -> i :: weave rest
                | [] -> moves
              in
              weave instrs
        in
        { b with Cfg.instrs = Array.of_list instrs })
      f.Cfg.blocks
  in
  Cfg.with_blocks f blocks
