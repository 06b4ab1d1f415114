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

type state = {
  k : int;
  machine : Machine.t;
  g : Igraph.t;  (* the round's graph; coalescing merges in place *)
  stage : node_stage Reg.Tbl.t;
  degree : int Reg.Tbl.t;  (* neighbours not yet on the stack *)
  move_list : int list ref Reg.Tbl.t; (* node -> move ids *)
  move_stage : (int, move_stage) Hashtbl.t;
  move_ends : (int, Reg.t * Reg.t) Hashtbl.t;
  color : Reg.t Reg.Tbl.t;
  mutable simplify_wl : Reg.Set.t;
  mutable freeze_wl : Reg.Set.t;
  mutable spill_wl : Reg.Set.t;
  mutable worklist_moves : int list;
  mutable select_stack : Reg.t list;
  mutable spilled : Reg.Set.t;
  costs : Spill_cost.t;
  temps : unit Reg.Tbl.t;
}

let stage_of st r =
  try Reg.Tbl.find st.stage r with Not_found -> Precolored

let set_stage st r s = Reg.Tbl.replace st.stage r s

(* Adjacent(n) excludes stack nodes; merged-away nodes are no longer
   in the graph. *)
let adjacent st r =
  Igraph.fold_adj st.g r ~init:Reg.Set.empty ~f:(fun acc n ->
      if stage_of st n = On_stack then acc else Reg.Set.add n acc)

let degree_of st r =
  if Reg.is_phys r then Igraph.infinite_degree
  else try Reg.Tbl.find st.degree r with Not_found -> 0

let node_moves st r =
  let ms = match Reg.Tbl.find_opt st.move_list r with Some c -> !c | None -> [] in
  List.filter
    (fun id ->
      match Hashtbl.find st.move_stage id with
      | Worklist_m | Active_m -> true
      | Coalesced_m | Constrained_m | Frozen_m -> false)
    ms

let move_related st r = node_moves st r <> []

let enable_moves st nodes =
  Reg.Set.iter
    (fun n ->
      List.iter
        (fun id ->
          if Hashtbl.find st.move_stage id = Active_m then begin
            Hashtbl.replace st.move_stage id Worklist_m;
            st.worklist_moves <- id :: st.worklist_moves
          end)
        (node_moves st n))
    nodes

let decrement_degree st m =
  if Reg.is_virtual m then begin
    let d = degree_of st m in
    Reg.Tbl.replace st.degree m (d - 1);
    if d = st.k then begin
      enable_moves st (Reg.Set.add m (adjacent st m));
      st.spill_wl <- Reg.Set.remove m st.spill_wl;
      if move_related st m then begin
        st.freeze_wl <- Reg.Set.add m st.freeze_wl;
        set_stage st m Freeze_wl
      end
      else begin
        st.simplify_wl <- Reg.Set.add m st.simplify_wl;
        set_stage st m Simplify_wl
      end
    end
  end

let simplify st =
  match Reg.Set.choose_opt st.simplify_wl with
  | None -> ()
  | Some n ->
      st.simplify_wl <- Reg.Set.remove n st.simplify_wl;
      st.select_stack <- n :: st.select_stack;
      set_stage st n On_stack;
      Reg.Set.iter (decrement_degree st) (adjacent st n)

let add_work_list st u =
  if
    Reg.is_virtual u
    && (not (move_related st u))
    && degree_of st u < st.k
    && stage_of st u = Freeze_wl
  then begin
    st.freeze_wl <- Reg.Set.remove u st.freeze_wl;
    st.simplify_wl <- Reg.Set.add u st.simplify_wl;
    set_stage st u Simplify_wl
  end

let ok st t r =
  degree_of st t < st.k || Reg.is_phys t || Igraph.interferes st.g t r

let conservative st nodes =
  let significant =
    Reg.Set.filter (fun n -> degree_of st n >= st.k) nodes
  in
  Reg.Set.cardinal significant < st.k

let combine st u v =
  (match stage_of st v with
  | Freeze_wl -> st.freeze_wl <- Reg.Set.remove v st.freeze_wl
  | Spill_wl -> st.spill_wl <- Reg.Set.remove v st.spill_wl
  | _ -> ());
  set_stage st v Coalesced;
  (match (Reg.Tbl.find_opt st.move_list u, Reg.Tbl.find_opt st.move_list v) with
  | Some cu, Some cv -> cu := !cv @ !cu
  | None, Some cv -> Reg.Tbl.replace st.move_list u (ref !cv)
  | _, None -> ());
  enable_moves st (Reg.Set.singleton v);
  (* Each of [v]'s neighbours not yet adjacent to [u] gains an edge
     (precolored pairs never interfere), then loses the one to [v]. *)
  let nbrs = adjacent st v in
  let bump r =
    if Reg.is_virtual r then Reg.Tbl.replace st.degree r (degree_of st r + 1)
  in
  Reg.Set.iter
    (fun t ->
      if not (Igraph.interferes st.g t u || (Reg.is_phys t && Reg.is_phys u))
      then begin
        bump t;
        bump u
      end)
    nbrs;
  Igraph.merge st.g ~keep:u ~drop:v;
  Reg.Set.iter (decrement_degree st) nbrs;
  if degree_of st u >= st.k && stage_of st u = Freeze_wl then begin
    st.freeze_wl <- Reg.Set.remove u st.freeze_wl;
    st.spill_wl <- Reg.Set.add u st.spill_wl;
    set_stage st u Spill_wl
  end

let coalesce st =
  match st.worklist_moves with
  | [] -> ()
  | id :: rest ->
      st.worklist_moves <- rest;
      let x0, y0 = Hashtbl.find st.move_ends id in
      let x = Igraph.alias st.g x0 and y = Igraph.alias st.g y0 in
      let u, v = if Reg.is_phys y then (y, x) else (x, y) in
      if Reg.equal u v then begin
        Hashtbl.replace st.move_stage id Coalesced_m;
        add_work_list st u
      end
      else if Reg.is_phys v || Igraph.interferes st.g u v then begin
        Hashtbl.replace st.move_stage id Constrained_m;
        add_work_list st u;
        add_work_list st v
      end
      else if
        (Reg.is_phys u && Reg.Set.for_all (fun t -> ok st t u) (adjacent st v))
        || (not (Reg.is_phys u))
           && conservative st (Reg.Set.union (adjacent st u) (adjacent st v))
      then begin
        Hashtbl.replace st.move_stage id Coalesced_m;
        combine st u v;
        add_work_list st u
      end
      else Hashtbl.replace st.move_stage id Active_m

let freeze_moves st u =
  List.iter
    (fun id ->
      let x, y = Hashtbl.find st.move_ends id in
      let x = Igraph.alias st.g x and y = Igraph.alias st.g y in
      let v = if Reg.equal y (Igraph.alias st.g u) then x else y in
      Hashtbl.replace st.move_stage id Frozen_m;
      if
        Reg.is_virtual v
        && (not (move_related st v))
        && degree_of st v < st.k
        && stage_of st v = Freeze_wl
      then begin
        st.freeze_wl <- Reg.Set.remove v st.freeze_wl;
        st.simplify_wl <- Reg.Set.add v st.simplify_wl;
        set_stage st v Simplify_wl
      end)
    (node_moves st u)

let freeze st =
  match Reg.Set.choose_opt st.freeze_wl with
  | None -> ()
  | Some u ->
      st.freeze_wl <- Reg.Set.remove u st.freeze_wl;
      st.simplify_wl <- Reg.Set.add u st.simplify_wl;
      set_stage st u Simplify_wl;
      freeze_moves st u

let select_spill st =
  let metric r =
    if Reg.Tbl.mem st.temps r then infinity
    else
      float_of_int (Spill_cost.spill_cost st.costs r)
      /. float_of_int (max 1 (degree_of st r))
  in
  match Reg.Set.elements st.spill_wl with
  | [] -> ()
  | blocked ->
      let victim, _ = Alloc_common.first_min metric blocked in
      st.spill_wl <- Reg.Set.remove victim st.spill_wl;
      st.simplify_wl <- Reg.Set.add victim st.simplify_wl;
      set_stage st victim Simplify_wl;
      freeze_moves st victim

let assign_colors st =
  List.iter
    (fun n ->
      let forbidden =
        Igraph.fold_adj st.g n ~init:Reg.Set.empty ~f:(fun acc w ->
            match stage_of st w with
            | Precolored -> Reg.Set.add w acc
            | Colored -> Reg.Set.add (Reg.Tbl.find st.color w) acc
            | _ -> acc)
      in
      let cls = Igraph.cls st.g n in
      let free =
        List.filter
          (fun c -> not (Reg.Set.mem c forbidden))
          (Machine.all st.machine cls)
      in
      let vol, nonvol = List.partition (Machine.is_volatile st.machine) free in
      (* Biased pick: a frozen/coalesced partner's color first. *)
      let partner_colors =
        List.filter_map
          (fun id ->
            let x, y = Hashtbl.find st.move_ends id in
            let x = Igraph.alias st.g x and y = Igraph.alias st.g y in
            let p =
              if Reg.equal x n then y else if Reg.equal y n then x else n
            in
            if Reg.equal p n then None
            else
              match stage_of st p with
              | Precolored -> Some p
              | Colored -> Reg.Tbl.find_opt st.color p
              | _ -> None)
          (match Reg.Tbl.find_opt st.move_list n with
          | Some c -> !c
          | None -> [])
      in
      let choice =
        match
          List.find_opt (fun c -> List.exists (Reg.equal c) free) partner_colors
        with
        | Some c -> Some c
        | None -> ( match nonvol @ vol with c :: _ -> Some c | [] -> None)
      in
      match choice with
      | Some c ->
          set_stage st n Colored;
          Reg.Tbl.replace st.color n c
      | None ->
          set_stage st n Spilled;
          st.spilled <- Reg.Set.add n st.spilled)
    st.select_stack;
  (* Coalesced nodes take their representative's color. *)
  Reg.Tbl.iter
    (fun n s ->
      if s = Coalesced then
        let a = Igraph.alias st.g n in
        match stage_of st a with
        | Precolored -> Reg.Tbl.replace st.color n a
        | Colored -> Reg.Tbl.replace st.color n (Reg.Tbl.find st.color a)
        | _ -> st.spilled <- Reg.Set.add n st.spilled)
    (Reg.Tbl.copy st.stage)

let run_once (m : Machine.t) (a : Alloc_common.analysis) ~temps =
  let g = a.Alloc_common.graph in
  let costs = a.Alloc_common.costs in
  let st =
    {
      k = m.Machine.k;
      machine = m;
      g;
      stage = Reg.Tbl.create 128;
      degree = Reg.Tbl.create 128;
      move_list = Reg.Tbl.create 64;
      move_stage = Hashtbl.create 64;
      move_ends = Hashtbl.create 64;
      color = Reg.Tbl.create 128;
      simplify_wl = Reg.Set.empty;
      freeze_wl = Reg.Set.empty;
      spill_wl = Reg.Set.empty;
      worklist_moves = [];
      select_stack = [];
      spilled = Reg.Set.empty;
      costs;
      temps;
    }
  in
  let nodes = Reg.Set.of_list (Igraph.vnodes g) in
  Reg.Set.iter (fun r -> Reg.Tbl.replace st.degree r (Igraph.degree g r)) nodes;
  List.iter
    (fun mv ->
      let id = mv.Igraph.instr_id in
      if not (Hashtbl.mem st.move_ends id) then begin
        Hashtbl.replace st.move_ends id (mv.Igraph.dst, mv.Igraph.src);
        Hashtbl.replace st.move_stage id Worklist_m;
        st.worklist_moves <- id :: st.worklist_moves;
        List.iter
          (fun r ->
            if not (Reg.is_phys r && Reg.is_phys (if r == mv.Igraph.dst then mv.Igraph.src else mv.Igraph.dst)) then begin
              let cell =
                match Reg.Tbl.find_opt st.move_list r with
                | Some c -> c
                | None ->
                    let c = ref [] in
                    Reg.Tbl.replace st.move_list r c;
                    c
              in
              cell := id :: !cell
            end)
          [ mv.Igraph.dst; mv.Igraph.src ]
      end)
    (Igraph.moves g);
  (* MakeWorklist *)
  Reg.Set.iter
    (fun n ->
      if degree_of st n >= st.k then begin
        st.spill_wl <- Reg.Set.add n st.spill_wl;
        set_stage st n Spill_wl
      end
      else if move_related st n then begin
        st.freeze_wl <- Reg.Set.add n st.freeze_wl;
        set_stage st n Freeze_wl
      end
      else begin
        st.simplify_wl <- Reg.Set.add n st.simplify_wl;
        set_stage st n Simplify_wl
      end)
    nodes;
  let continue () =
    (not (Reg.Set.is_empty st.simplify_wl))
    || st.worklist_moves <> []
    || (not (Reg.Set.is_empty st.freeze_wl))
    || not (Reg.Set.is_empty st.spill_wl)
  in
  while continue () do
    if not (Reg.Set.is_empty st.simplify_wl) then simplify st
    else if st.worklist_moves <> [] then coalesce st
    else if not (Reg.Set.is_empty st.freeze_wl) then freeze st
    else select_spill st
  done;
  assign_colors st;
  st

let allocate (m : Machine.t) f0 =
  let color a ~temps =
    let st = run_once m a ~temps in
    if Reg.Set.is_empty st.spilled then
      Alloc_common.Colored (Reg.Tbl.find_opt st.color, ())
    else Alloc_common.Spill st.spilled
  in
  fst (Alloc_common.drive ~name f0 color)

let allocator = Allocator.v ~name:"iterated" ~label:"iterated" allocate
