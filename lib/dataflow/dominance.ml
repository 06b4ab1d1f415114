(* Every field is an array of length [Cfg.label_bound], indexed by
   label; [-1] marks a label no path from the entry reaches. *)
type t = {
  rpo : Instr.label list;
  preds : Instr.label list array;
  rpo_index : int array;
  idoms : int array; (* entry maps to itself *)
  entry : Instr.label;
  kids : Instr.label list array;
  frontiers : Instr.label list array;
}

let compute (f : Cfg.func) =
  let entry = f.Cfg.entry in
  let rpo = Cfg.reverse_postorder f in
  let preds_all = Cfg.predecessors f in
  let bound = Array.length preds_all in
  let rpo_index = Array.make bound (-1) in
  List.iteri (fun i l -> rpo_index.(l) <- i) rpo;
  (* Reachable predecessors of each reachable label: an unreachable one
     has no dominator to intersect. *)
  let preds = Array.make bound [] in
  List.iter
    (fun l -> preds.(l) <- List.filter (fun p -> rpo_index.(p) >= 0) preds_all.(l))
    rpo;
  let idoms = Array.make bound (-1) in
  idoms.(entry) <- entry;
  let rec intersect a b =
    if a = b then a
    else if rpo_index.(a) > rpo_index.(b) then intersect idoms.(a) b
    else intersect a idoms.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        if l <> entry then
          match List.filter (fun p -> idoms.(p) >= 0) preds.(l) with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idoms.(l) <> new_idom then begin
                idoms.(l) <- new_idom;
                changed := true
              end)
      rpo
  done;
  let kids = Array.make bound [] in
  List.iter
    (fun l ->
      if l <> entry then
        let d = idoms.(l) in
        kids.(d) <- l :: kids.(d))
    rpo;
  let frontiers = Array.make bound [] in
  List.iter
    (fun l ->
      match preds.(l) with
      | _ :: _ :: _ as ps ->
          let target_idom = idoms.(l) in
          List.iter
            (fun p ->
              let runner = ref p in
              while !runner <> target_idom do
                let r = !runner in
                if not (List.mem l frontiers.(r)) then
                  frontiers.(r) <- l :: frontiers.(r);
                runner := idoms.(r)
              done)
            ps
      | _ -> ())
    rpo;
  { rpo; preds = preds_all; rpo_index; idoms; entry; kids; frontiers }

let reachable t l = l >= 0 && l < Array.length t.rpo_index && t.rpo_index.(l) >= 0

let idom t l =
  if not (reachable t l) then raise Not_found;
  if l = t.entry then None else Some t.idoms.(l)

let rec dominates t a b =
  if a = b then true
  else if b = t.entry then false
  else if not (reachable t b) then raise Not_found
  else dominates t a t.idoms.(b)

let in_range a l = l >= 0 && l < Array.length a
let children t l = if in_range t.kids l then t.kids.(l) else []
let frontier t l = if in_range t.frontiers l then t.frontiers.(l) else []
let labels t = t.rpo
let predecessors t = t.preds
