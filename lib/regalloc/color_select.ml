type order = Index_order | Nonvolatile_first | Volatile_first

type t = { colors : Reg.t Reg.Tbl.t; failed : Reg.Set.t }

let color_of t g r =
  let rep = Igraph.alias g r in
  if Reg.is_phys rep then Some rep else Reg.Tbl.find_opt t.colors rep

(* Neighbors all share [rep]'s class, so their colors screen through
   one register mask; a neighbor's register outside the file adds no
   bit. *)
let free_mask m g color_of r =
  Machine.file_mask m
  land lnot
         (Igraph.fold_adj g r ~init:0 ~f:(fun acc n ->
              match color_of n with
              | Some c -> acc lor (1 lsl Reg.phys_index c)
              | None -> acc))

let run m g ~stack ~order ~biased =
  let prefer =
    match order with
    | Index_order -> 0
    | Nonvolatile_first -> Machine.nonvolatile_mask m
    | Volatile_first -> Machine.volatile_mask m
  in
  let t = { colors = Reg.Tbl.create 64; failed = Reg.Set.empty } in
  let failed = ref Reg.Set.empty in
  let moves = Igraph.moves g in
  let partners r =
    let rep = Igraph.alias g r in
    List.filter_map
      (fun mv ->
        let a = Igraph.alias g mv.Igraph.dst
        and b = Igraph.alias g mv.Igraph.src in
        if Reg.equal a rep && not (Reg.equal b rep) then Some b
        else if Reg.equal b rep && not (Reg.equal a rep) then Some a
        else None)
      moves
  in
  List.iter
    (fun r ->
      let rep = Igraph.alias g r in
      if (not (Reg.is_phys rep)) && not (Reg.Tbl.mem t.colors rep) then begin
        let free = free_mask m g (color_of t g) rep in
        if free = 0 then failed := Reg.Set.add rep !failed
        else
          let choice =
            if not biased then None
            else
              (* Take a partner's color if it is free. *)
              List.find_map
                (fun p ->
                  match color_of t g p with
                  | Some c when free land (1 lsl Reg.phys_index c) <> 0 ->
                      Some c
                  | _ -> None)
                (partners rep)
          in
          let c =
            match choice with
            | Some c -> c
            | None -> Reg.phys (Igraph.cls g rep) (Machine.pick ~prefer free)
          in
          Reg.Tbl.replace t.colors rep c
      end)
    stack;
  { t with failed = !failed }
