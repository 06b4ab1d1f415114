type t = {
  depths : int array; (* by label; 0 outside loops and when unreachable *)
  headers : Instr.label list;
}

(* For each back edge n -> h (h dominates n), the natural loop is h plus
   every block that reaches n without passing through h.  Nesting depth
   of a block = number of natural loops containing it.  A loop's body is
   marked by stamping its blocks with the loop's ordinal, so one array
   serves every loop. *)
let compute (f : Cfg.func) =
  let dom = Dominance.compute f in
  let preds = Dominance.predecessors dom in
  let by_label = Cfg.blocks_by_label f in
  let bound = Array.length preds in
  let depths = Array.make bound 0 in
  let stamp = Array.make bound (-1) in
  let loop = ref 0 in
  let headers = ref [] in
  let mark l =
    stamp.(l) <- !loop;
    if Dominance.reachable dom l then depths.(l) <- depths.(l) + 1
  in
  let rec pull m =
    if stamp.(m) <> !loop then begin
      mark m;
      List.iter pull preds.(m)
    end
  in
  List.iter
    (fun n ->
      match by_label.(n) with
      | None -> ()
      | Some b ->
          List.iter
            (fun h ->
              if Dominance.dominates dom h n then begin
                if not (List.mem h !headers) then headers := h :: !headers;
                mark h;
                pull n;
                incr loop
              end)
            (Cfg.successors b))
    (Dominance.labels dom);
  { depths; headers = !headers }

let depth t l = if l >= 0 && l < Array.length t.depths then t.depths.(l) else 0

let frequency t l =
  let d = min (depth t l) 6 in
  let rec pow acc n = if n = 0 then acc else pow (acc * 10) (n - 1) in
  pow 1 d

let loop_headers t = t.headers
