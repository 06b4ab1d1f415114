(* Dense CPG.

   Nodes are indices of the interference graph's compact numbering
   (or a private numbering for [of_total_order]).  Per node, the
   direct successors are a bitset row ([succ]), so the
   transitive-pruning step retires [succ(u) ∩ reach(n)] in one
   word-wise pass ({!Regbits.Set.remove_inter}); predecessors are a
   growable int vector ([pred]).  A cached in-degree counter
   ([indeg]) and a global [edges] counter mean [n_edges] and the
   initial-node scan never recount.  Every insertion site adds an
   edge at most once — [build] visits each (neighbor, popped-node)
   pair exactly once per pop (the interference graph's adjacency
   vectors are duplicate-free), and [of_total_order] chains a
   duplicate-free order — so [indeg] and [edges] count distinct
   edges.  Nothing reads predecessors mid-build, so [finish_build]
   materializes every [pred] row from the final [succ] rows in one
   pass.

   The tree-based predecessor of this module iterated [Reg.Set]s,
   whose order (ascending register id) leaks into observable behavior:
   the transitive-pruning step of [build] mutates the graph mid-scan,
   and [resolve] returns newly-ready successors in *descending*
   register order (ascending fold + prepend).  Every scan here sorts
   by register id first to reproduce those orders bit-for-bit.

   Incremental relaxation.  Construction pops nodes in simplification
   removal order; every edge it inserts points from a still-present
   node [u] to the node [n] being popped at that moment.  Two facts
   follow and carry the whole incremental scheme (DESIGN §3e):

   - the set of nodes reachable from any node along succ edges
     contains only already-popped nodes and only ever grows, because a
     node acquires out-edges exclusively while present and loses none
     that matter: the transitive-pruning step retires a direct edge
     [u -> m] only when [n -> m] already holds through the edge
     [u -> n] inserted in the same step, so reachability is preserved;
   - a popped node's out-edge list is final (removals target edges of
     *present* nodes only), so its reachable set can be frozen at pop
     time.

   [build] therefore maintains one bitset per node — the popped nodes
   reachable from it — and answers both reachability questions of the
   paper's step 7 ("is an edge [u -> n] already implied?", "which
   direct edges does it make transitive?") with bitset operations
   instead of the per-step depth-first re-traversal the previous
   version ran.  Inserting an edge costs one intersection pass over
   the tail's successor row (retiring the edges it makes transitive)
   plus one bitset union. *)

type t = {
  cpt : Regbits.compact;
  mutable cap : int;
  mutable succ : Regbits.Set.t array;
  mutable pred : Regbits.Vec.t array;
  mutable indeg : int array;
  mutable pending : int array; (* unresolved predecessor count *)
  mutable edges : int; (* cached: always = number of distinct edges *)
  mutable initial_nodes : Reg.t list;
  all : Reg.t list;
}

(* Shared empty-slot sentinels.  A relaxed CPG has far fewer edges than
   nodes, so most rows stay empty forever: slots start out aliased to
   these (never-mutated) empties and a private vector/bitset is
   materialized on first mutation.  [Set.mem] and [Set.iter] are
   bounds-safe and read-only, so reads through [empty_set] are fine. *)
let empty_vec = Regbits.Vec.create ()
let empty_set = Regbits.Set.create 0

let grow t needed =
  let cap = max needed (max 16 (2 * t.cap)) in
  let succ = Array.make cap empty_set in
  let pred = Array.make cap empty_vec in
  let indeg = Array.make cap 0 in
  let pending = Array.make cap 0 in
  Array.blit t.succ 0 succ 0 t.cap;
  Array.blit t.pred 0 pred 0 t.cap;
  Array.blit t.indeg 0 indeg 0 t.cap;
  Array.blit t.pending 0 pending 0 t.cap;
  t.succ <- succ;
  t.pred <- pred;
  t.indeg <- indeg;
  t.pending <- pending;
  t.cap <- cap

let make cpt all =
  let t =
    {
      cpt;
      cap = 0;
      succ = [||];
      pred = [||];
      indeg = [||];
      pending = [||];
      edges = 0;
      initial_nodes = [];
      all;
    }
  in
  grow t (max 16 (Regbits.size cpt));
  t

let idx t r =
  let i = Regbits.index t.cpt r in
  if i >= t.cap then grow t (i + 1);
  i

(* Index of [r] if it has any chance of carrying graph state. *)
let find_idx t r =
  match Regbits.find t.cpt r with
  | Some i when i < t.cap -> Some i
  | Some _ | None -> None

let reg_at t i = Regbits.reg_at t.cpt i

(* Registers in ascending id order, as [Reg.Set.elements] returned. *)
let sorted_regs t fold =
  fold ~init:[] ~f:(fun acc i -> reg_at t i :: acc) |> List.sort Reg.compare

let succs t r =
  match find_idx t r with
  | Some i -> sorted_regs t (Regbits.Set.fold t.succ.(i))
  | None -> []

let preds t r =
  match find_idx t r with
  | Some i -> sorted_regs t (Regbits.Vec.fold t.pred.(i))
  | None -> []

let nodes t = t.all
let initial t = t.initial_nodes
let n_edges t = t.edges

(* Dense sub-API (layering rule in cpg.mli). *)
let compact t = t.cpt
let index_of t r = idx t r
let reg_of = reg_at

(* Precondition: the edge is absent (see the header).  The [pred] row
   is left untouched; [finish_build] fills it. *)
let add_edge_idx t u v =
  if t.succ.(u) == empty_set then t.succ.(u) <- Regbits.Set.create 0;
  Regbits.Set.add t.succ.(u) v;
  t.indeg.(v) <- t.indeg.(v) + 1;
  t.edges <- t.edges + 1

(* Materialize the [pred] rows from the final [succ] rows, then fill
   [pending] from the final in-degrees and collect the
   zero-predecessor nodes, scanning the removal order so that
   [initial_nodes] ends up in the same (reversed) order as before.
   The order within a [pred] row is unobservable: {!preds} sorts, and
   nothing else reads the raw vectors. *)
let finish_build t order_idx =
  List.iter
    (fun u ->
      Regbits.Set.iter t.succ.(u) (fun v ->
          if t.pred.(v) == empty_vec then t.pred.(v) <- Regbits.Vec.create ();
          Regbits.Vec.push t.pred.(v) u))
    order_idx;
  List.iter
    (fun i ->
      t.pending.(i) <- t.indeg.(i);
      if t.indeg.(i) = 0 then t.initial_nodes <- reg_at t i :: t.initial_nodes)
    order_idx;
  t

let build ~k g (simp : Simplify.result) =
  let order = Simplify.removal_order simp in
  let t = make (Igraph.compact g) order in
  let order_idx = List.map (fun r -> Igraph.index_of g r) order in
  List.iter (fun i -> if i >= t.cap then grow t (i + 1)) order_idx;
  (* Working interference graph: residual degree + presence, physical
     registers excluded.  The graph's own adjacency vectors are walked
     directly, in their (unsorted) order: every per-pop effect below is
     independent per neighbor — see the step-7 comment — so no ordering
     is imposed and no per-node adjacency copy is materialized. *)
  let present = Array.make t.cap false in
  let degree = Array.make t.cap 0 in
  let ready = Array.make t.cap false in
  (* Virtuality per index, computed once: testing through [reg_at] per
     adjacency entry would cost O(E) register lookups.  Only removal-
     order nodes are marked, so [virt] doubles as "participates in the
     working graph". *)
  let virt = Array.make t.cap false in
  List.iter (fun i -> virt.(i) <- Reg.is_virtual (reg_at t i)) order_idx;
  (* reach.(i): bitset of the popped nodes reachable from [i] along
     succ edges (frozen once [i] pops; [i] joins its own set then).
     Monotone — see the header invariant — so edge retirement never
     touches it.  Slots alias the shared empty sentinel until first
     mutated ([add]/[union_into] grow their target): most
     nodes never become an edge tail or target, so even allocating one
     empty set per node — let alone pre-sizing to the node count,
     O(n^2) words per build — is wasted work on the common path. *)
  let reach = Array.make t.cap empty_set in
  (* Step 4: residual degree starts at the full interference degree —
     the same initialization {!Simplify.run} uses.  Physical neighbors
     are precolored, hence a *permanent* constraint at every point of
     every topological order: they never pop, so their contribution is
     never decremented and a node cannot become ready on virtual
     neighbors alone.  Initially low-degree nodes are ready; potential
     spills exist but stay unready. *)
  List.iter
    (fun i ->
      let deg = Igraph.degree_idx g i in
      present.(i) <- true;
      degree.(i) <- deg;
      ready.(i) <- deg < k)
    order_idx;
  (* Steps 5-9: pop in removal order.  Step 7 (edge insertion and
     transitive pruning) and step 8 (degree decrement / readiness) are
     fused into one adjacency walk: each neighbor [u] is handled
     independently — its edge work reads and writes only [u]'s own
     state plus [n]'s frozen set, and [ready.(u)] can only be flipped
     by [u]'s own decrement, which runs after its edge work — so the
     fusion observes exactly the two-phase state. *)
  List.iter
    (fun n ->
      present.(n) <- false;
      (* Freeze n's reachable set: from here on it answers "does n
         reach m?" for every later step in O(1).  Materialized lazily —
         if no neighbor enters the edge branch below, nothing ever
         reads it again (edges into [n] exist only through that
         branch), so the freeze can be skipped outright. *)
      let rn_frozen = ref empty_set in
      let freeze_rn () =
        if !rn_frozen == empty_set then begin
          let s =
            if reach.(n) == empty_set then Regbits.Set.create 0 else reach.(n)
          in
          Regbits.Set.add s n;
          reach.(n) <- s;
          rn_frozen := s
        end;
        !rn_frozen
      in
      (* Step 7: non-ready remaining neighbors precede n.  Skip an edge
         that is already implied ([n] reachable from [u]), and retire
         direct edges it makes transitive ([u -> m] with [m] reachable
         from [n]).  Edges into [n] from other tails never enter
         [reach.(u)], so the scan order over the neighbors cannot
         influence the final edge set. *)
      Igraph.iter_adj_idx g n (fun u ->
          if u < t.cap && virt.(u) && present.(u) then begin
            if (not ready.(u)) && not (Regbits.Set.mem reach.(u) n) then begin
              let rn = freeze_rn () in
              (* One word-wise pass retires the stale edges
                 [u -> m], m in [rn], before [u -> n] is added: [n]
                 is in [rn] but not yet in [u]'s row ([n] is not
                 reachable from [u]), so the new edge is never its own
                 victim. *)
              Regbits.Set.remove_inter ~src:rn ~dst:t.succ.(u) (fun m ->
                  t.indeg.(m) <- t.indeg.(m) - 1;
                  t.edges <- t.edges - 1);
              add_edge_idx t u n;
              if reach.(u) == empty_set then reach.(u) <- Regbits.Set.create 0;
              ignore (Regbits.Set.union_into ~src:rn ~dst:reach.(u))
            end;
            (* Step 8: the removal may make [u] ready. *)
            let d = degree.(u) - 1 in
            degree.(u) <- d;
            if d < k then ready.(u) <- true
          end))
    order_idx;
  (* Nodes with no predecessors hang off the top. *)
  finish_build t order_idx

let of_total_order order =
  let cpt = Regbits.create () in
  let t = make cpt order in
  let order_idx = List.map (idx t) order in
  let rec chain = function
    | a :: (b :: _ as rest) ->
        add_edge_idx t a b;
        chain rest
    | [ _ ] | [] -> ()
  in
  chain order_idx;
  finish_build t order_idx

(* The tree-based version folded the successor set ascending and
   prepended each newly-ready node: the result is the newly-ready
   successors in descending register order.  Reproduce it by sorting;
   which successors become ready does not depend on visit order (each
   is decremented exactly once). *)
let resolve_idx t i =
  let ready = ref [] in
  Regbits.Set.iter t.succ.(i) (fun s ->
      let p = t.pending.(s) - 1 in
      t.pending.(s) <- p;
      if p = 0 then ready := s :: !ready);
  List.sort (fun a b -> Reg.compare (reg_at t b) (reg_at t a)) !ready

let resolve t r =
  match find_idx t r with
  | None -> []
  | Some i -> List.map (reg_at t) (resolve_idx t i)

let topological_orders_ok t =
  (* Kahn's algorithm visits every node iff the graph is acyclic. *)
  let pending = Array.copy t.indeg in
  let q = Queue.create () in
  List.iter
    (fun r ->
      let i = idx t r in
      if pending.(i) = 0 then Queue.add i q)
    t.all;
  let visited = ref 0 in
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    incr visited;
    Regbits.Set.iter t.succ.(i) (fun s ->
        let p = pending.(s) - 1 in
        pending.(s) <- p;
        if p = 0 then Queue.add s q)
  done;
  !visited = List.length t.all

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      match succs t r with
      | [] -> ()
      | ss ->
          Format.fprintf ppf "%a -> {%a}@ " Reg.pp r
            (Format.pp_print_list ~pp_sep:Fmt.comma Reg.pp)
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
