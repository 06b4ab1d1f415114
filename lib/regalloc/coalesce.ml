let candidate g mv =
  let a = Igraph.alias g mv.Igraph.dst and b = Igraph.alias g mv.Igraph.src in
  if Reg.equal a b then None
  else if Reg.is_phys a && Reg.is_phys b then None
  else if Igraph.interferes g a b then None
  else
    (* Keep the physical register when one side is precolored. *)
    let keep, drop = if Reg.is_phys b then (b, a) else (a, b) in
    Some (keep, drop)

let aggressive g =
  let merges = ref 0 in
  List.iter
    (fun mv ->
      match candidate g mv with
      | Some (keep, drop) ->
          Igraph.merge g ~keep ~drop;
          incr merges
      | None -> ())
    (Igraph.moves g);
  !merges

(* Both tests take root indices and the degree to judge significance
   by: the graph's own for [conservative], iterated coalescing's
   current degree for its worklists.  Briggs counts the union's distinct
   significant neighbours with a scratch bitset instead of
   materializing a [Reg.Set]. *)
let briggs_ok ~k ~degree g a b =
  let seen = Regbits.Set.create (Regbits.size (Igraph.compact g)) in
  let count = ref 0 in
  let add n =
    if degree n >= k && not (Regbits.Set.mem seen n) then begin
      Regbits.Set.add seen n;
      incr count
    end
  in
  Igraph.iter_adj_idx g a add;
  if b <> a then Igraph.iter_adj_idx g b add;
  !count < k

let george_ok ~k ~degree g a b =
  let ok = ref true in
  Igraph.iter_adj_idx g a (fun n ->
      if
        !ok
        && not
             (degree n < k
             || Reg.is_phys (Igraph.reg_of g n)
             || Igraph.interferes_idx g n b)
      then ok := false);
  !ok

let conservative ~k g =
  let degree = Igraph.degree_idx g in
  let safe keep drop =
    let ki = Igraph.index_of g keep and di = Igraph.index_of g drop in
    if Reg.is_phys keep then george_ok ~k ~degree g di ki
    else briggs_ok ~k ~degree g ki di
  in
  let merges = ref 0 in
  let rec pass budget =
    if budget = 0 then ()
    else begin
      let changed = ref false in
      List.iter
        (fun mv ->
          match candidate g mv with
          | Some (keep, drop) when safe keep drop ->
              Igraph.merge g ~keep ~drop;
              incr merges;
              changed := true
          | Some _ | None -> ())
        (Igraph.moves g);
      if !changed then pass (budget - 1)
    end
  in
  pass 10;
  !merges
