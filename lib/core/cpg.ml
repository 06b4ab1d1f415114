(* Dense CPG.

   Nodes are indices of the interference graph's compact numbering
   (or a private numbering for [of_total_order]); the numbering never
   grows, so every per-node array is sized once.

   The graph keeps two edge sets over the same partial order.  The
   precedence relation ([succ]) is what construction records and what
   [resolve] walks: every edge step 7 of the paper inserts, transitive
   ones included.  The paper's transitively reduced graph is what
   [succs], [preds], [n_edges], [pp] and [to_dot] show; it is computed
   on first use and cached ([reduced]).  Select reads only readiness,
   and readiness is the same under both sets (cpg.mli, [resolve]), so
   the allocation hot path computes no reachability at all.

   [succ.(u)] lists [u]'s recorded successors latest-first in
   [topo_rev], a reverse topological order: a successor that reaches
   another one comes before it.  Both constructors record rows that
   way, and the reduction relies on it.

   The tree-based predecessor of this module iterated [Reg.Set]s,
   whose order (ascending register id) leaks into observable behavior:
   [resolve] returns newly-ready successors in *descending* register
   order (ascending fold + prepend).  Every query here sorts by
   register id to reproduce those orders bit-for-bit. *)

type reduced = {
  rsucc : int list array;
  rpred : int list array;
  redges : int;
}

type t = {
  cpt : Regbits.compact;
  succ : int list array; (* the precedence relation, see the header *)
  pending : int array; (* unresolved predecessor count *)
  initial_nodes : Reg.t list;
  all : Reg.t list;
  topo_rev : int list; (* every node, each after all of its successors *)
  mutable reduced : reduced option; (* computed on first use *)
}

let idx t r = Regbits.index t.cpt r
let reg_at t i = Regbits.reg_at t.cpt i

(* Nodes with no predecessors hang off the top.  Scanning [topo_rev]
   and prepending gives [build]'s in reversed removal order, the order
   the tree-based version returned. *)
let make cpt all topo_rev succ pending =
  let initial_nodes =
    List.fold_left
      (fun acc i -> if pending.(i) = 0 then Regbits.reg_at cpt i :: acc else acc)
      [] topo_rev
  in
  { cpt; succ; pending; initial_nodes; all; topo_rev; reduced = None }

(* The transitive reduction, in one pass over [topo_rev].  [reach.(u)]
   is the set of nodes reachable from [u] by one or more edges; every
   successor of [u] is final before [u] is visited.  A successor is
   dropped when an earlier one in [u]'s row (latest-first, so every
   successor that could reach it comes earlier) already reaches it.
   Rows of nodes without successors alias one never-mutated empty set. *)
let reduce t =
  let size = Regbits.size t.cpt in
  let none = Regbits.Set.create 0 in
  let reach = Array.make size none in
  let rsucc = Array.make size [] and rpred = Array.make size [] in
  let redges = ref 0 in
  List.iter
    (fun u ->
      if t.succ.(u) <> [] then begin
        let acc = Regbits.Set.create size in
        List.iter
          (fun s ->
            if not (Regbits.Set.mem acc s) then begin
              rsucc.(u) <- s :: rsucc.(u);
              rpred.(s) <- u :: rpred.(s);
              incr redges
            end;
            ignore (Regbits.Set.union_into ~src:reach.(s) ~dst:acc);
            Regbits.Set.add acc s)
          t.succ.(u);
        reach.(u) <- acc
      end)
    t.topo_rev;
  { rsucc; rpred; redges = !redges }

let reduction t =
  match t.reduced with
  | Some r -> r
  | None ->
      let r = reduce t in
      t.reduced <- Some r;
      r

(* Registers in ascending id order, as [Reg.Set.elements] returned. *)
let sorted_regs t l = List.sort Reg.compare (List.map (reg_at t) l)

let succs t r = sorted_regs t (reduction t).rsucc.(idx t r)
let preds t r = sorted_regs t (reduction t).rpred.(idx t r)

let nodes t = t.all
let initial t = t.initial_nodes
let n_edges t = (reduction t).redges

(* Dense sub-API (layering rule in cpg.mli). *)
let compact t = t.cpt

let build ~k g (simp : Simplify.result) =
  let order = Simplify.removal_order simp in
  let cpt = Igraph.compact g in
  let order_idx = List.map (Igraph.index_of g) order in
  let size = Regbits.size cpt in
  let succ = Array.make size [] and pending = Array.make size 0 in
  (* Working interference graph: presence and residual degree.  Only
     virtual removal-order nodes are ever present.  The graph's own
     adjacency vectors are walked unsorted: a neighbor's work reads and
     writes only its own state and [n]'s counter.
     Step 4: residual degree starts at the full interference degree —
     the same initialization {!Simplify.run} uses.  Physical neighbors
     are precolored, hence a *permanent* constraint at every point of
     every topological order: they never pop, so their contribution is
     never decremented and a node cannot become ready on virtual
     neighbors alone.  A node is ready once its residual degree drops
     below [k]; potential spills exist but stay unready. *)
  let present = Array.make size false in
  let degree = Array.make size 0 in
  List.iter
    (fun i ->
      present.(i) <- Reg.is_virtual (Regbits.reg_at cpt i);
      degree.(i) <- Igraph.degree_idx g i)
    order_idx;
  (* Steps 5-9: pop in removal order.  Step 7: every non-ready remaining
     neighbor [u] precedes [n], recorded as [u -> n]; step 8: the
     removal may make [u] ready.  [n] is prepended to [u]'s row, so a
     row lists its successors latest-popped first. *)
  List.iter
    (fun n ->
      present.(n) <- false;
      Igraph.iter_adj_idx g n (fun u ->
          if present.(u) then begin
            let d = degree.(u) in
            if d >= k then begin
              succ.(u) <- n :: succ.(u);
              pending.(n) <- pending.(n) + 1
            end;
            degree.(u) <- d - 1
          end))
    order_idx;
  (* Removal order is a reverse topological order: every edge runs from
     a node popped later to one popped earlier. *)
  make cpt order order_idx succ pending

let of_total_order order =
  let cpt = Regbits.of_regs order in
  let size = Regbits.size cpt in
  let succ = Array.make size [] and pending = Array.make size 0 in
  let order_idx = List.map (Regbits.index cpt) order in
  let rec chain = function
    | a :: (b :: _ as rest) ->
        succ.(a) <- [ b ];
        pending.(b) <- pending.(b) + 1;
        chain rest
    | [ _ ] | [] -> ()
  in
  chain order_idx;
  make cpt order (List.rev order_idx) succ pending

(* The tree-based version folded the successor set ascending and
   prepended each newly-ready node: the result is the newly-ready
   successors in descending register order.  Reproduce it by sorting;
   which successors become ready does not depend on visit order (each
   is decremented exactly once). *)
let resolve_idx t i =
  let ready =
    List.fold_left
      (fun ready s ->
        let p = t.pending.(s) - 1 in
        t.pending.(s) <- p;
        if p = 0 then s :: ready else ready)
      [] t.succ.(i)
  in
  List.sort (fun a b -> Reg.compare (reg_at t b) (reg_at t a)) ready

let resolve t r = List.map (reg_at t) (resolve_idx t (idx t r))

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      match succs t r with
      | [] -> ()
      | ss ->
          Format.fprintf ppf "%a -> {%a}@ " Reg.pp r
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
               Reg.pp)
            ss)
    t.all;
  Format.fprintf ppf "@]"

(* Dumps must be diffable across runs and jobs modes: nodes are emitted
   in ascending register order (not removal order) and each node's
   edges in ascending successor order, so two structurally equal graphs
   render byte-for-byte identically. *)
let to_dot ?(name = Reg.to_string) ppf t =
  Format.fprintf ppf "digraph cpg {@.";
  Format.fprintf ppf "  top [shape=plaintext];@.";
  List.iter
    (fun r ->
      if preds t r = [] then
        Format.fprintf ppf "  top -> \"%s\";@." (name r);
      List.iter
        (fun s -> Format.fprintf ppf "  \"%s\" -> \"%s\";@." (name r) (name s))
        (succs t r))
    (List.sort Reg.compare t.all);
  Format.fprintf ppf "}@."
