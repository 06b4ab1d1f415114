let name = "iterated"

type node_stage =
  | Precolored
  | Simplify_wl
  | Freeze_wl
  | Spill_wl
  | On_stack
  | Coalesced
  | Colored
  | Spilled

type move_stage = Worklist_m | Active_m | Coalesced_m | Constrained_m | Frozen_m

(* A node worklist: a bitset over Reg.t ranks, so its smallest member
   is the smallest register, plus its size. *)
type worklist = { set : Regbits.Set.t; mutable size : int }

(* Nodes are indices of the round graph's compact numbering; moves are
   positions in [Igraph.moves]. *)
type state = {
  k : int;
  machine : Machine.t;
  g : Igraph.t;  (* the round's graph; coalescing merges in place *)
  phys : bool array;
  rank : int array;  (* node -> its position in Reg.t order *)
  at_rank : int array;  (* inverse of [rank] *)
  stage : node_stage array;
  degree : int array;  (* neighbours not yet on the stack *)
  move_list : Regbits.Vec.t array;  (* node -> move ids, newest last *)
  move_stage : move_stage array;
  move_dst : int array;
  move_src : int array;
  color : int array;  (* a register, or -1 *)
  simplify_wl : worklist;
  freeze_wl : worklist;
  spill_wl : worklist;
  mutable worklist_moves : int list;
  mutable select_stack : int list;
  mutable spilled : int list;
  scratch : Regbits.Set.t;  (* ranks, empty between calls *)
  costs : Spill_cost.t;
  no_spill : Reg.t -> bool;
}

let reg st i = Igraph.reg_of st.g i
let root st i = Igraph.root_idx st.g i

let degree_of st i =
  if st.phys.(i) then Igraph.infinite_degree else st.degree.(i)

let wl_mem st wl i = Regbits.Set.mem wl.set st.rank.(i)

let wl_add st wl i =
  if not (wl_mem st wl i) then begin
    Regbits.Set.add wl.set st.rank.(i);
    wl.size <- wl.size + 1
  end

let wl_remove st wl i =
  if wl_mem st wl i then begin
    Regbits.Set.remove wl.set st.rank.(i);
    wl.size <- wl.size - 1
  end

let wl_min st wl = st.at_rank.(Regbits.Set.min_elt wl.set)

let on_stack st i = match st.stage.(i) with On_stack -> true | _ -> false
let in_freeze_wl st i = match st.stage.(i) with Freeze_wl -> true | _ -> false

(* Adjacent(n): the neighbours of root [i] not on the stack (merged-away
   nodes are no longer in the graph), plus [i] itself if [self], in
   ascending Reg.t order. *)
let adjacent ?(self = false) st i =
  let s = st.scratch in
  let n = ref 0 in
  let add j =
    Regbits.Set.add s st.rank.(j);
    incr n
  in
  if self then add i;
  Igraph.iter_adj_idx st.g i (fun j -> if not (on_stack st j) then add j);
  let out = Array.make !n 0 and pos = ref 0 in
  Regbits.Set.iter s (fun r ->
      out.(!pos) <- st.at_rank.(r);
      incr pos);
  Regbits.Set.clear s;
  out

(* [f] over a node's moves, newest first. *)
let iter_moves st i f =
  let v = st.move_list.(i) in
  for p = Regbits.Vec.length v - 1 downto 0 do
    f (Regbits.Vec.get v p)
  done

let live_move st id =
  match st.move_stage.(id) with
  | Worklist_m | Active_m -> true
  | Coalesced_m | Constrained_m | Frozen_m -> false

(* NodeMoves: the worklist and active moves, newest first. *)
let node_moves st i =
  Regbits.Vec.fold st.move_list.(i) ~init:[] ~f:(fun acc id ->
      if live_move st id then id :: acc else acc)

let move_related st i =
  let v = st.move_list.(i) in
  let rec go p = p >= 0 && (live_move st (Regbits.Vec.get v p) || go (p - 1)) in
  go (Regbits.Vec.length v - 1)

let enable_moves st n =
  iter_moves st n (fun id ->
      match st.move_stage.(id) with
      | Active_m ->
          st.move_stage.(id) <- Worklist_m;
          st.worklist_moves <- id :: st.worklist_moves
      | Worklist_m | Coalesced_m | Constrained_m | Frozen_m -> ())

let to_simplify st wl i =
  wl_remove st wl i;
  wl_add st st.simplify_wl i;
  st.stage.(i) <- Simplify_wl

let decrement_degree st m =
  if not st.phys.(m) then begin
    let d = st.degree.(m) in
    st.degree.(m) <- d - 1;
    if d = st.k then begin
      Array.iter (enable_moves st) (adjacent ~self:true st m);
      wl_remove st st.spill_wl m;
      if move_related st m then begin
        wl_add st st.freeze_wl m;
        st.stage.(m) <- Freeze_wl
      end
      else begin
        wl_add st st.simplify_wl m;
        st.stage.(m) <- Simplify_wl
      end
    end
  end

let simplify st =
  let n = wl_min st st.simplify_wl in
  wl_remove st st.simplify_wl n;
  st.select_stack <- n :: st.select_stack;
  st.stage.(n) <- On_stack;
  Array.iter (decrement_degree st) (adjacent st n)

(* Moves [v] from the freeze list to the simplify list once nothing
   keeps it there. *)
let unfreeze st v =
  if
    (not st.phys.(v))
    && (not (move_related st v))
    && st.degree.(v) < st.k
    && in_freeze_wl st v
  then to_simplify st st.freeze_wl v

let combine st u v =
  (match st.stage.(v) with
  | Freeze_wl -> wl_remove st st.freeze_wl v
  | Spill_wl -> wl_remove st st.spill_wl v
  | _ -> ());
  st.stage.(v) <- Coalesced;
  (* [u]'s move list becomes [v]'s followed by its own. *)
  let mu = st.move_list.(u) and mv = st.move_list.(v) in
  for p = 0 to Regbits.Vec.length mv - 1 do
    Regbits.Vec.push mu (Regbits.Vec.get mv p)
  done;
  enable_moves st v;
  (* Each of [v]'s neighbours not yet adjacent to [u] gains an edge
     (precolored pairs never interfere), then loses the one to [v]. *)
  let nbrs = adjacent st v in
  let bump r = if not st.phys.(r) then st.degree.(r) <- st.degree.(r) + 1 in
  Array.iter
    (fun t ->
      if not (Igraph.interferes_idx st.g t u || (st.phys.(t) && st.phys.(u)))
      then begin
        bump t;
        bump u
      end)
    nbrs;
  Igraph.merge st.g ~keep:(reg st u) ~drop:(reg st v);
  Array.iter (decrement_degree st) nbrs;
  if degree_of st u >= st.k && in_freeze_wl st u then begin
    wl_remove st st.freeze_wl u;
    wl_add st st.spill_wl u;
    st.stage.(u) <- Spill_wl
  end

(* The Briggs and George tests see on-stack nodes as degree 0, exactly
   as if Adjacent had filtered them out. *)
let current_degree st n = if on_stack st n then 0 else degree_of st n

let coalesce st =
  match st.worklist_moves with
  | [] -> ()
  | id :: rest ->
      st.worklist_moves <- rest;
      let x = root st st.move_dst.(id) and y = root st st.move_src.(id) in
      let u, v = if st.phys.(y) then (y, x) else (x, y) in
      let k = st.k and degree = current_degree st in
      if u = v then begin
        st.move_stage.(id) <- Coalesced_m;
        unfreeze st u
      end
      else if st.phys.(v) || Igraph.interferes_idx st.g u v then begin
        st.move_stage.(id) <- Constrained_m;
        unfreeze st u;
        unfreeze st v
      end
      else if
        if st.phys.(u) then Coalesce.george_ok ~k ~degree st.g v u
        else Coalesce.briggs_ok ~k ~degree st.g u v
      then begin
        st.move_stage.(id) <- Coalesced_m;
        combine st u v;
        unfreeze st u
      end
      else st.move_stage.(id) <- Active_m

let freeze_moves st u =
  List.iter
    (fun id ->
      let x = root st st.move_dst.(id) and y = root st st.move_src.(id) in
      let v = if y = root st u then x else y in
      st.move_stage.(id) <- Frozen_m;
      unfreeze st v)
    (node_moves st u)

let freeze st =
  let u = wl_min st st.freeze_wl in
  to_simplify st st.freeze_wl u;
  freeze_moves st u

(* The lowest cost/degree, the smallest register winning ties. *)
let select_spill st =
  let metric i =
    if st.no_spill (reg st i) then infinity
    else
      float_of_int (Spill_cost.spill_cost st.costs (reg st i))
      /. float_of_int (max 1 (degree_of st i))
  in
  let best = ref (-1) and best_m = ref infinity in
  Regbits.Set.iter st.spill_wl.set (fun r ->
      let i = st.at_rank.(r) in
      let m = metric i in
      if !best < 0 || m < !best_m then begin
        best := i;
        best_m := m
      end);
  to_simplify st st.spill_wl !best;
  freeze_moves st !best

let assign_colors st =
  let m = st.machine in
  List.iter
    (fun n ->
      let forbidden = ref 0 in
      Igraph.iter_adj_idx st.g (root st n) (fun w ->
          match st.stage.(w) with
          | Precolored ->
              forbidden := !forbidden lor (1 lsl Reg.phys_index (reg st w))
          | Colored ->
              forbidden := !forbidden lor (1 lsl Reg.phys_index st.color.(w))
          | _ -> ());
      let free_regs = Machine.file_mask m land lnot !forbidden in
      let cls = Igraph.cls st.g (reg st n) in
      let free c =
        Reg.phys_cls c = cls && free_regs land (1 lsl Reg.phys_index c) <> 0
      in
      (* Biased pick: a frozen/coalesced partner's color first, then
         non-volatile before volatile, each in file order. *)
      let partner = ref (-1) in
      iter_moves st n (fun id ->
          if !partner < 0 then begin
            let x = root st st.move_dst.(id) and y = root st st.move_src.(id) in
            let p = if x = n then y else if y = n then x else n in
            if p <> n then
              let c =
                match st.stage.(p) with
                | Precolored -> reg st p
                | Colored -> st.color.(p)
                | _ -> -1
              in
              if c >= 0 && free c then partner := c
          end);
      let choice =
        if !partner >= 0 then !partner
        else
          match Machine.pick ~prefer:(Machine.nonvolatile_mask m) free_regs with
          | -1 -> -1
          | j -> Reg.phys cls j
      in
      if choice >= 0 then begin
        st.stage.(n) <- Colored;
        st.color.(n) <- choice
      end
      else begin
        st.stage.(n) <- Spilled;
        st.spilled <- n :: st.spilled
      end)
    st.select_stack;
  (* Coalesced nodes take their representative's color. *)
  Array.iteri
    (fun n s ->
      match s with
      | Coalesced -> (
          let a = root st n in
          match st.stage.(a) with
          | Precolored -> st.color.(n) <- reg st a
          | Colored -> st.color.(n) <- st.color.(a)
          | _ -> st.spilled <- n :: st.spilled)
      | _ -> ())
    st.stage

let run_once (m : Machine.t) (a : Alloc_common.analysis) ~no_spill =
  let g = a.Alloc_common.graph in
  let cpt = Igraph.compact g in
  let n = Regbits.size cpt in
  let at_rank = Array.init n Fun.id in
  Array.sort
    (fun i j -> Reg.compare (Igraph.reg_of g i) (Igraph.reg_of g j))
    at_rank;
  let rank = Array.make n 0 in
  Array.iteri (fun r i -> rank.(i) <- r) at_rank;
  let moves = Array.of_list (Igraph.moves g) in
  let worklist () = { set = Regbits.Set.create n; size = 0 } in
  let st =
    {
      k = m.Machine.k;
      machine = m;
      g;
      phys = Array.init n (fun i -> Reg.is_phys (Igraph.reg_of g i));
      rank;
      at_rank;
      stage = Array.make n Precolored;
      degree = Array.make n 0;
      move_list = Array.init n (fun _ -> Regbits.Vec.create ());
      move_stage = Array.make (Array.length moves) Worklist_m;
      move_dst = Array.map (fun mv -> Regbits.index cpt mv.Igraph.dst) moves;
      move_src = Array.map (fun mv -> Regbits.index cpt mv.Igraph.src) moves;
      color = Array.make n (-1);
      simplify_wl = worklist ();
      freeze_wl = worklist ();
      spill_wl = worklist ();
      worklist_moves = [];
      select_stack = [];
      spilled = [];
      scratch = Regbits.Set.create n;
      costs = a.Alloc_common.costs;
      no_spill;
    }
  in
  Array.iteri
    (fun id _ ->
      let d = st.move_dst.(id) and s = st.move_src.(id) in
      st.worklist_moves <- id :: st.worklist_moves;
      if not (st.phys.(d) && st.phys.(s)) then begin
        Regbits.Vec.push st.move_list.(d) id;
        Regbits.Vec.push st.move_list.(s) id
      end)
    moves;
  (* MakeWorklist *)
  List.iter
    (fun r ->
      let i = Igraph.index_of g r in
      st.degree.(i) <- Igraph.degree_idx g i;
      if st.degree.(i) >= st.k then begin
        wl_add st st.spill_wl i;
        st.stage.(i) <- Spill_wl
      end
      else if move_related st i then begin
        wl_add st st.freeze_wl i;
        st.stage.(i) <- Freeze_wl
      end
      else begin
        wl_add st st.simplify_wl i;
        st.stage.(i) <- Simplify_wl
      end)
    (Igraph.vnodes g);
  let rec loop () =
    if st.simplify_wl.size > 0 then (simplify st; loop ())
    else if st.worklist_moves <> [] then (coalesce st; loop ())
    else if st.freeze_wl.size > 0 then (freeze st; loop ())
    else if st.spill_wl.size > 0 then (select_spill st; loop ())
  in
  loop ();
  assign_colors st;
  st

let allocate (m : Machine.t) f0 =
  let color a ~no_spill =
    let st = run_once m a ~no_spill in
    if st.spilled = [] then
      let cpt = Igraph.compact st.g in
      let color_of r =
        match Regbits.find cpt r with
        | Some i when st.color.(i) >= 0 -> Some st.color.(i)
        | _ -> None
      in
      Alloc_common.Colored color_of
    else
      Alloc_common.Spill
        (List.fold_left
           (fun s i -> Reg.Set.add (reg st i) s)
           Reg.Set.empty st.spilled)
  in
  Alloc_common.drive ~name f0 color

let allocator = Allocator.v ~name:"iterated" ~label:"iterated" allocate
