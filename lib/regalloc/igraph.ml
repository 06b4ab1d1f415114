(* Dense interference graph.

   Nodes are the dense indices of the liveness compact numbering, which
   the graph shares and which holds every register of the body, so the
   per-node arrays are sized once.  Three parallel structures per node,
   kept exactly in sync:

   - a bitset row ([bits]) giving O(1) membership for [interferes];
   - an int vector ([adjv]) of the same neighbors in ascending index
     order, for O(degree) neighbor iteration with no tree walks;
   - a cached degree ([deg]), set by [build] and kept exact by [merge]
     rather than recomputed.

   Aliases (coalescing) are a union-find over indices with path
   compression. *)

type move = { instr_id : int; dst : Reg.t; src : Reg.t }

type t = {
  fn : Cfg.func;
  cpt : Regbits.compact;
  bits : Regbits.Set.t array;
  adjv : Regbits.Vec.t array;
  deg : int array;
  parent : int array; (* union-find: -1 = root *)
  cls_code : int array; (* 0 = Int_class, 1 = Float_class *)
  move_list : move list;
}

let infinite_degree = max_int / 2
let idx t r = Regbits.index t.cpt r

let rec root t i =
  let p = t.parent.(i) in
  if p < 0 then i
  else begin
    let r = root t p in
    if r <> p then t.parent.(i) <- r;
    r
  end

let cls t r = Cfg.cls_of t.fn r
let alias t r = Regbits.reg_at t.cpt (root t (idx t r))
let reg_is_phys t i = Reg.is_phys (Regbits.reg_at t.cpt i)

(* Dense sub-API: expose the shared numbering so the PDGC core (Rpg,
   Cpg, Pdgc_select) and the simplify/coalesce phases can run on the
   same indices without re-indexing. *)
let compact t = t.cpt
let index_of t r = root t (idx t r)
let reg_of t i = Regbits.reg_at t.cpt i

let root_idx = root

(* Record the edge [a]-[b], which [add_edge_idx] has checked is new and
   allowed, keeping both vectors ascending. *)
let link t a b =
  Regbits.Set.add t.bits.(a) b;
  Regbits.Set.add t.bits.(b) a;
  Regbits.Vec.insert_sorted t.adjv.(a) b;
  Regbits.Vec.insert_sorted t.adjv.(b) a;
  t.deg.(a) <- t.deg.(a) + 1;
  t.deg.(b) <- t.deg.(b) + 1

(* Indices must be roots. *)
let add_edge_idx t a b =
  if
    a <> b
    && t.cls_code.(a) = t.cls_code.(b)
    && not (reg_is_phys t a && reg_is_phys t b)
    && not (Regbits.Set.mem t.bits.(a) b)
  then link t a b

let interferes t a b =
  let a = root t (idx t a) and b = root t (idx t b) in
  Regbits.Set.mem t.bits.(a) b

let degree t r =
  let i = root t (idx t r) in
  if reg_is_phys t i then infinite_degree else t.deg.(i)

(* [i] must be a root index (as returned by [index_of]). *)
let iter_adj_idx t i f = Regbits.Vec.iter t.adjv.(i) f

let degree_idx t i = if reg_is_phys t i then infinite_degree else t.deg.(i)
let interferes_idx t a b = Regbits.Set.mem t.bits.(a) b

let fold_adj t r ~init ~f =
  let i = root t (idx t r) in
  Regbits.Vec.fold t.adjv.(i) ~init ~f:(fun acc n ->
      f acc (Regbits.reg_at t.cpt n))

let vnodes t =
  let acc = ref [] in
  for i = Regbits.size t.cpt - 1 downto 0 do
    if t.parent.(i) < 0 then begin
      let r = Regbits.reg_at t.cpt i in
      if Reg.is_virtual r then acc := r :: !acc
    end
  done;
  !acc

let moves t = t.move_list

(* Each definition ORs the registers live out of it, of its class (and
   virtual, for a physical definition), into its row a word at a time,
   less itself and a copy's source when that edge is not already there.
   The rows then hold each edge in its definition's direction; one pass
   over them adds the mirror bits, and each node's degree and ascending
   adjacency vector are read off its finished row. *)
let build (fn : Cfg.func) (live : Liveness.t) =
  let cpt = Liveness.compact live in
  let n = Regbits.size cpt in
  (* The liveness numbering holds exactly the registers the body defines
     or uses: every one is a node, its row as wide as the numbering. *)
  let bits = Array.init n (fun _ -> Regbits.Set.create n) in
  let cls_code =
    Array.init n (fun i ->
        match Cfg.cls_of fn (Regbits.reg_at cpt i) with
        | Reg.Int_class -> 0
        | Reg.Float_class -> 1)
  in
  let is_phys i = Reg.is_phys (Regbits.reg_at cpt i) in
  (* [same.(c)]: the nodes of class code [c]; [vsame.(c)]: its virtual
     ones, the only possible neighbors of a physical node. *)
  let same = Array.init 2 (fun _ -> Regbits.Set.create n) in
  let vsame = Array.init 2 (fun _ -> Regbits.Set.create n) in
  for i = 0 to n - 1 do
    let c = cls_code.(i) in
    Regbits.Set.add same.(c) i;
    if not (is_phys i) then Regbits.Set.add vsame.(c) i
  done;
  let move_list = ref [] in
  List.iter
    (fun b ->
      Liveness.iter_block_backward_bits live b ~f:(fun ~live_out i ->
          let kind = i.Instr.kind in
          (match kind with
          | Instr.Move { dst; src }
            when (not (Reg.equal dst src))
                 && Cfg.cls_of fn dst = Cfg.cls_of fn src ->
              move_list := { instr_id = i.Instr.id; dst; src } :: !move_list
          | _ -> ());
          let exempt =
            match kind with
            | Instr.Move { src; _ } -> Regbits.index cpt src
            | _ -> -1
          in
          List.iter
            (fun d ->
              let di = Regbits.index cpt d in
              let row = bits.(di) in
              let c = cls_code.(di) in
              let mask = if is_phys di then vsame.(c) else same.(c) in
              let keep_exempt = exempt >= 0 && Regbits.Set.mem row exempt in
              Regbits.Set.union_inter_into ~src:live_out ~mask ~dst:row;
              Regbits.Set.remove row di;
              if exempt >= 0 && not keep_exempt then
                Regbits.Set.remove row exempt)
            (Instr.defs kind)))
    fn.Cfg.blocks;
  Regbits.Set.symmetrize bits;
  let adjv = Array.map Regbits.Vec.of_set bits in
  {
    fn;
    cpt;
    bits;
    adjv;
    deg = Array.map Regbits.Vec.length adjv;
    parent = Array.make n (-1);
    cls_code;
    move_list = !move_list;
  }

let merge t ~keep ~drop =
  let keep = root t (idx t keep) and drop = root t (idx t drop) in
  if keep = drop then ()
  else begin
    if not (Reg.is_virtual (Regbits.reg_at t.cpt drop)) then
      invalid_arg "Igraph.merge: cannot merge away a physical register";
    if Regbits.Set.mem t.bits.(keep) drop then
      invalid_arg "Igraph.merge: nodes interfere";
    let drop_adj = t.adjv.(drop) in
    Regbits.Vec.iter drop_adj (fun n ->
        (* Detach [drop] from its neighbor, then re-attach the neighbor
           to [keep] (a no-op when already adjacent), keeping the
           neighbor's cached degree exact. *)
        Regbits.Set.remove t.bits.(n) drop;
        Regbits.Vec.remove_sorted t.adjv.(n) drop;
        t.deg.(n) <- t.deg.(n) - 1;
        add_edge_idx t keep n);
    t.bits.(drop) <- Regbits.Set.create 0;
    t.adjv.(drop) <- Regbits.Vec.create ();
    t.deg.(drop) <- 0;
    t.parent.(drop) <- keep
  end

let copy t =
  {
    t with
    bits = Array.map Regbits.Set.copy t.bits;
    adjv = Array.map Regbits.Vec.copy t.adjv;
    deg = Array.copy t.deg;
    parent = Array.copy t.parent;
  }
