(* Dense interference graph.

   Nodes are the dense indices of the liveness compact numbering (the
   graph interns further registers on demand and shares the numbering).
   Three parallel structures per node, kept exactly in sync:

   - a bitset row ([bits]) giving O(1) membership for [interferes];
   - a growable int vector ([adjv]) for O(degree) neighbor iteration
     with no tree walks;
   - a cached degree ([deg]), updated incrementally by [add_edge] and
     [merge] rather than recomputed.

   Aliases (coalescing) are a union-find over indices with path
   compression. *)

type move = { instr_id : int; dst : Reg.t; src : Reg.t }

type cls_code = int (* 0 = Int_class, 1 = Float_class, -1 = unknown *)

type t = {
  fn : Cfg.func;
  cpt : Regbits.compact;
  mutable bits : Regbits.Set.t array;
  mutable adjv : Regbits.Vec.t array;
  mutable deg : int array;
  mutable parent : int array; (* union-find: -1 = root *)
  mutable present : bool array; (* node exists and is not merged away *)
  mutable cls_code : cls_code array;
  mutable cap : int;
  mutable move_list : move list;
}

let infinite_degree = max_int / 2

let grow t needed =
  let cap = max needed (max 16 (2 * t.cap)) in
  let bits = Array.make cap (Regbits.Set.create 0) in
  let adjv = Array.make cap (Regbits.Vec.create ()) in
  let deg = Array.make cap 0 in
  let parent = Array.make cap (-1) in
  let present = Array.make cap false in
  let cls_code = Array.make cap (-1) in
  Array.blit t.bits 0 bits 0 t.cap;
  Array.blit t.adjv 0 adjv 0 t.cap;
  Array.blit t.deg 0 deg 0 t.cap;
  Array.blit t.parent 0 parent 0 t.cap;
  Array.blit t.present 0 present 0 t.cap;
  Array.blit t.cls_code 0 cls_code 0 t.cap;
  for i = t.cap to cap - 1 do
    bits.(i) <- Regbits.Set.create 0;
    adjv.(i) <- Regbits.Vec.create ()
  done;
  t.bits <- bits;
  t.adjv <- adjv;
  t.deg <- deg;
  t.parent <- parent;
  t.present <- present;
  t.cls_code <- cls_code;
  t.cap <- cap

let idx t r =
  let i = Regbits.index t.cpt r in
  if i >= t.cap then grow t (i + 1);
  i

let rec root t i =
  let p = t.parent.(i) in
  if p < 0 then i
  else begin
    let r = root t p in
    if r <> p then t.parent.(i) <- r;
    r
  end

let cls_code_of t i =
  let c = t.cls_code.(i) in
  if c >= 0 then c
  else
    let code =
      match Cfg.cls_of t.fn (Regbits.reg_at t.cpt i) with
      | Reg.Int_class -> 0
      | Reg.Float_class -> 1
    in
    t.cls_code.(i) <- code;
    code

let create fn cpt =
  let t =
    {
      fn;
      cpt;
      bits = [||];
      adjv = [||];
      deg = [||];
      parent = [||];
      present = [||];
      cls_code = [||];
      cap = 0;
      move_list = [];
    }
  in
  grow t (max 16 (Regbits.size cpt));
  t

let func t = t.fn
let cls t r = Cfg.cls_of t.fn r
let alias t r = Regbits.reg_at t.cpt (root t (idx t r))
let is_node t r = t.present.(root t (idx t r))
let reg_is_phys t i = Reg.is_phys (Regbits.reg_at t.cpt i)

(* Dense sub-API: expose the shared numbering so the PDGC core (Rpg,
   Cpg, Pdgc_select) and the simplify/coalesce phases can run on the
   same indices without re-interning. *)
let compact t = t.cpt
let index_of t r = root t (idx t r)
let reg_of t i = Regbits.reg_at t.cpt i

let root_idx t i =
  if i >= t.cap then grow t (i + 1);
  root t i

(* Indices must be roots. *)
let add_edge_idx t a b =
  if
    a <> b
    && cls_code_of t a = cls_code_of t b
    && not (reg_is_phys t a && reg_is_phys t b)
    && not (Regbits.Set.mem t.bits.(a) b)
  then begin
    Regbits.Set.add t.bits.(a) b;
    Regbits.Set.add t.bits.(b) a;
    Regbits.Vec.push t.adjv.(a) b;
    Regbits.Vec.push t.adjv.(b) a;
    t.deg.(a) <- t.deg.(a) + 1;
    t.deg.(b) <- t.deg.(b) + 1;
    t.present.(a) <- true;
    t.present.(b) <- true
  end

let add_edge t a b = add_edge_idx t (root t (idx t a)) (root t (idx t b))

let ensure_node t r =
  let i = root t (idx t r) in
  t.present.(i) <- true

let interferes t a b =
  let a = root t (idx t a) and b = root t (idx t b) in
  Regbits.Set.mem t.bits.(a) b

let degree t r =
  let i = root t (idx t r) in
  if reg_is_phys t i then infinite_degree else t.deg.(i)

let iter_adj t r f =
  let i = root t (idx t r) in
  Regbits.Vec.iter t.adjv.(i) (fun n -> f (Regbits.reg_at t.cpt n))

(* [i] must be a root index (as returned by [index_of]). *)
let iter_adj_idx t i f = Regbits.Vec.iter t.adjv.(i) f

let degree_idx t i = if reg_is_phys t i then infinite_degree else t.deg.(i)
let interferes_idx t a b = Regbits.Set.mem t.bits.(a) b

let fold_adj t r ~init ~f =
  let i = root t (idx t r) in
  Regbits.Vec.fold t.adjv.(i) ~init ~f:(fun acc n ->
      f acc (Regbits.reg_at t.cpt n))

let adj t r = fold_adj t r ~init:Reg.Set.empty ~f:(fun acc n -> Reg.Set.add n acc)

let vnodes t =
  let acc = ref [] in
  for i = Regbits.size t.cpt - 1 downto 0 do
    if i < t.cap && t.present.(i) && t.parent.(i) < 0 then begin
      let r = Regbits.reg_at t.cpt i in
      if Reg.is_virtual r then acc := r :: !acc
    end
  done;
  !acc

let moves t = t.move_list

let build (fn : Cfg.func) (live : Liveness.t) =
  let t = create fn (Liveness.compact live) in
  List.iter
    (fun b ->
      Liveness.iter_block_backward_bits live b ~f:(fun ~live_out i ->
          let kind = i.Instr.kind in
          List.iter (ensure_node t) (Instr.defs kind);
          List.iter (ensure_node t) (Instr.uses kind);
          (match kind with
          | Instr.Move { dst; src }
            when (not (Reg.equal dst src))
                 && Cfg.cls_of fn dst = Cfg.cls_of fn src ->
              t.move_list <- { instr_id = i.Instr.id; dst; src } :: t.move_list
          | _ -> ());
          let exempt =
            match kind with
            | Instr.Move { src; _ } -> idx t src
            | _ -> -1
          in
          List.iter
            (fun d ->
              let di = idx t d in
              Regbits.Set.iter live_out (fun l ->
                  if l <> exempt then add_edge_idx t di l))
            (Instr.defs kind)))
    fn.Cfg.blocks;
  t

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
        ignore (Regbits.Vec.remove_value t.adjv.(n) drop);
        t.deg.(n) <- t.deg.(n) - 1;
        add_edge_idx t keep n);
    t.bits.(drop) <- Regbits.Set.create 0;
    t.adjv.(drop) <- Regbits.Vec.create ();
    t.deg.(drop) <- 0;
    t.present.(drop) <- false;
    t.parent.(drop) <- keep
  end

let copy t =
  {
    t with
    bits = Array.map Regbits.Set.copy (Array.sub t.bits 0 t.cap);
    adjv = Array.map Regbits.Vec.copy (Array.sub t.adjv 0 t.cap);
    deg = Array.copy t.deg;
    parent = Array.copy t.parent;
    present = Array.copy t.present;
    cls_code = Array.copy t.cls_code;
  }

let pp ppf t =
  let nodes = vnodes t |> List.sort Reg.compare in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      Format.fprintf ppf "%a: {%a}@ " Reg.pp r
        (Format.pp_print_list ~pp_sep:Fmt.comma Reg.pp)
        (Reg.Set.elements (adj t r)))
    nodes;
  Format.fprintf ppf "@]"
