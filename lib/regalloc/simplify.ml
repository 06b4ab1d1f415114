type mode = Chaitin | Optimistic

type result = {
  stack : Reg.t list;
  potential_spills : Reg.Set.t;
  forced_spills : Reg.Set.t;
}

(* Degrees and presence live in plain arrays over the graph's compact
   indices; the worklist queue carries indices.  The blocked nodes
   (degree >= k) are a bitset over the same indices, kept like Appel's
   spillWorklist: a node joins it at the start and leaves when its
   degree falls to k - 1 or it leaves the graph.  So a blocked step
   reads the candidates in ascending index order, without a walk over
   the remaining nodes.  A node enters [low] at most once, at the start
   or when its degree falls to k - 1, and only a blocked node is ever
   spilled, so no entry of [low] goes stale. *)
let run mode ~k g ~spill_choice ?(never_spill = fun _ -> false) () =
  let size = Regbits.size (Igraph.compact g) in
  let degree = Array.make size 0 in
  let present = Array.make size false in
  let blocked = Regbits.Set.create size in
  let low = Queue.create () in
  List.iter
    (fun r ->
      let i = Igraph.index_of g r in
      degree.(i) <- Igraph.degree_idx g i;
      present.(i) <- true;
      if degree.(i) < k then Queue.add i low else Regbits.Set.add blocked i)
    (Igraph.vnodes g);
  let stack = ref [] in
  let potential = ref Reg.Set.empty in
  let forced = ref Reg.Set.empty in
  let remove i =
    present.(i) <- false;
    Regbits.Set.remove blocked i;
    Igraph.iter_adj_idx g i (fun n ->
        if present.(n) then begin
          let d = degree.(n) in
          degree.(n) <- d - 1;
          if d = k then begin
            Regbits.Set.remove blocked n;
            Queue.add n low
          end
        end)
  in
  let rec loop () =
    match Queue.take_opt low with
    | Some i ->
        stack := Igraph.reg_of g i :: !stack;
        remove i;
        loop ()
    | None when Regbits.Set.is_empty blocked -> ()
    | None ->
        let victim =
          Regbits.Set.fold blocked ~init:[] ~f:(fun acc i ->
              Igraph.reg_of g i :: acc)
          |> List.rev |> spill_choice
        in
        (match mode with
        | Chaitin when not (never_spill victim) ->
            forced := Reg.Set.add victim !forced
        | Chaitin | Optimistic ->
            potential := Reg.Set.add victim !potential;
            stack := victim :: !stack);
        remove (Igraph.index_of g victim);
        loop ()
  in
  loop ();
  { stack = !stack; potential_spills = !potential; forced_spills = !forced }

let removal_order r = List.rev r.stack
