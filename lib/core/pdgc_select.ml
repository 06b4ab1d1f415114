type policy = Differential | Strongest | Fifo

type stats = {
  honored_coalesce : int;
  honored_sequential : int;
  honored_kind : int;
  honored_limited : int;
  active_spills : int;
}

type outcome = {
  colors : Reg.t Reg.Tbl.t;
  spilled : Reg.Set.t;
  stats : stats;
}

type params = {
  no_spill : Reg.t -> bool;
  spill_risk : Reg.Set.t;
  policy : policy;
  fallback_nonvolatile_first : bool;
}

let params ?(no_spill = fun _ -> false) ?(spill_risk = Reg.Set.empty)
    ?(policy = Differential) ?(fallback_nonvolatile_first = false) () =
  { no_spill; spill_risk; policy; fallback_nonvolatile_first }

(* Dense select.

   Node state is indexed by the interference graph's compact numbering;
   sets of *physical* registers (availability, screens, kind/limited
   partitions) are int bitmasks with bit [j] standing for the machine
   register of index [j] in the node's class.  Bit order equals
   register-id order within a class, so ascending-bit scans reproduce
   the [Reg.Set] iteration order of the tree-based implementation
   exactly, and mask intersections reproduce [Reg.Set.inter].

   The honor loop is incremental end to end (DESIGN §3e):

   - Availability is a per-node *forbidden* mask maintained as colors
     land: the masks are seeded from the precolored (physical) rows up
     front, and when a node takes machine register [c], each graph
     neighbor's mask gains bit [c] during the invalidation walk.
     Colors are never revoked within a run, so the masks grow
     monotonically and [available_idx] is a load and a complement —
     the adjacency walk the previous version ran on every query
     happens exactly once per colored node.

   - Each ready node carries a *preference summary* — count, strongest
     and weakest honorable effective strength — from which the policy
     keys (differential, strongest) derive.  Summaries live in flat
     arrays and feed an indexed binary max-heap.  The summary
     invalidation contract: a summary can only change when (a) a graph
     neighbor takes a color (availability shrinks), (b) a preference
     target gets colored ([defer] resolves) or spilled ([defer] dies), or
     (c) a node holding a preference for this node resolves.  Exactly
     those events mark the summary dirty; in particular a *spilled*
     node no longer invalidates its graph neighbors — spilling takes no
     color, so their availability and summaries are untouched (the
     events (b)/(c) still fire through the preference edges).  Dirty
     heap members are re-keyed before any pick reads the root.
     Preference edges are pre-indexed (dense endpoint indices, handed
     out by an RPG that shares the graph's numbering, cached per node
     with their allocation-independent strengths), nodes without
     preferences are never dirtied (their summary is constant), and a
     re-key that leaves the stored keys unchanged skips the sifts —
     none of which is observable through the strict total order below.
     Per-node facts the loop reads repeatedly (class code, spill-cost
     tiebreak) are cached in arrays on first use, and [colors] is
     filled once at the end, in coloring order, so the loop does no
     [Reg.t] hashing.

   The ready set is split by the pick rule it feeds:
   - spill-risk nodes keep their CPG-queue order in a list (the pick
     rule is "first at-risk node in queue order");
   - under [Fifo] the whole queue stays a list (the pick rule is
     positional);
   - otherwise non-risk ready nodes live in the summary heap, ordered
     by (policy key, spill-cost tiebreak, lowest register id) — a
     strict total order, so the heap root equals the old fold's
     maximum.

   Readiness flows in through {!Cpg}'s dense sub-API when the CPG
   shares the interference graph's numbering ([Cpg.build] does;
   [Cpg.of_total_order] carries a private numbering and falls back to
   the [Reg.t] layer). *)

(* Resolution of one preference against the current allocation state,
   int-coded so the summary recomputes allocate nothing: a positive
   value is a screen — honorable via any register in this nonempty
   mask — and the rest are: *)
let dead = 0 (* cannot be honored anymore *)
let defer = -1 (* target live range not allocated yet *)
let want_memory = -2

let run (m : Machine.t) g (rpg : Rpg.t) (cpg : Cpg.t) (str : Strength.t)
    (ps : params) =
  let { no_spill; spill_risk; policy; fallback_nonvolatile_first } = ps in
  let k = m.Machine.k in
  let all_mask = Machine.file_mask m in
  let vol_mask = Machine.volatile_mask m in
  let nonvol_mask = Machine.nonvolatile_mask m in
  let cpt = Igraph.compact g in
  if Rpg.compact rpg != cpt then
    invalid_arg "Pdgc_select.run: the RPG must be built over the graph's numbering";
  let n_nodes = Regbits.size cpt in
  (* The CPG built by [Cpg.build] indexes nodes by this same numbering;
     the ablation chain from [Cpg.of_total_order] does not. *)
  let cpg_shares_numbering = Cpg.compact cpg == cpt in
  (* Virtual nodes in the order they took their colors; [colors] is
     filled from it once at the end, in that order. *)
  let colored = ref [] in
  (* color_idx.(i): machine-register index of node i's color; -1 if
     uncolored.  Physical nodes are their own color. *)
  let color_idx = Array.make n_nodes (-1) in
  for i = 0 to n_nodes - 1 do
    let r = Regbits.reg_at cpt i in
    if Reg.is_phys r then color_idx.(i) <- Reg.phys_index r
  done;
  let spilled_bits = Regbits.Set.create n_nodes in
  let n_coalesce = ref 0 and n_seq = ref 0 and n_kind = ref 0 in
  let n_limited = ref 0 and n_active = ref 0 in
  let nidx r = Igraph.index_of g r in
  let reg_of_idx i = Regbits.reg_at cpt i in
  (* Preference edges with pre-indexed endpoints, built once per node
     on first touch: each out-edge carries the dense index of its
     virtual Coalesce/Seq target (-1 for physical targets and the
     self-shaped preferences) and its [fixed] strength, each in-edge its
     source's index.  [fixed] is whatever part of the preference's
     resolution does not depend on the allocation state: the effective
     strength of a honorable Kind or In_limited preference, and for
     Memory its strength, or -1 when [no_spill] rules it out.  Every
     later summary recompute and invalidation walk is then hash-free. *)
  let no_out : (Rpg.pref * int * int) array = [||] in
  let out_arr = Array.make n_nodes no_out in
  let out_ok = Array.make n_nodes false in
  (* The RPG shares the graph's numbering (checked on entry), so its
     edges come with their endpoints already indexed; only merged
     nodes need mapping to their representative. *)
  let root i = if i < 0 then i else Igraph.root_idx g i in
  let prefs_of i =
    if not out_ok.(i) then begin
      let n = reg_of_idx i in
      out_arr.(i) <-
        Array.of_list
          (List.map
             (fun ((p : Rpg.pref), tgt) ->
               match p.Rpg.target with
               | Rpg.Coalesce _ | Rpg.Seq_plus _ | Rpg.Seq_minus _ ->
                   (p, root tgt, 0)
               | Rpg.Kind ->
                   let w = p.Rpg.weight in
                   (p, -1, abs (w.Strength.vol - w.Strength.nonvol))
               | Rpg.In_limited ->
                   let f =
                     match p.Rpg.instr_id with
                     | Some id -> Strength.freq_of_instr str id
                     | None -> 1
                   in
                   (p, -1, Costs.limited_fixup * f)
               | Rpg.Memory ->
                   (p, -1, if no_spill n then -1 else Rpg.strength p))
             (Rpg.prefs_idx rpg i));
      out_ok.(i) <- true
    end;
    out_arr.(i)
  in
  (* In-edges as (source is virtual, source's representative, pref). *)
  let no_inc : (bool * int * Rpg.pref) array = [||] in
  let inc_arr = Array.make n_nodes no_inc in
  let inc_ok = Array.make n_nodes false in
  let incoming_of i =
    if not inc_ok.(i) then begin
      inc_arr.(i) <-
        Array.of_list
          (List.map
             (fun (ui, p) -> (Reg.is_virtual (reg_of_idx ui), root ui, p))
             (Rpg.incoming_idx rpg i));
      inc_ok.(i) <- true
    end;
    inc_arr.(i)
  in
  (* Incrementally maintained forbidden masks, always current: seeded
     from the precolored (physical) rows — the only colors that exist
     before select runs — then updated edge-by-edge in the invalidation
     walk as virtual nodes take colors.  Availability is a load and a
     complement. *)
  let forbidden = Array.make n_nodes 0 in
  for p = 0 to n_nodes - 1 do
    let cj = color_idx.(p) in
    if cj >= 0 then
      Igraph.iter_adj_idx g p (fun nb ->
          forbidden.(nb) <- forbidden.(nb) lor (1 lsl cj))
  done;
  let available_idx i = all_mask land lnot forbidden.(i) in
  let shift_ok j = j >= 0 && j < k in
  (* Steps 2.1/2.2: resolve a preference of [n] given its available
     mask.  [tgt] is the index of the virtual target, found at RPG
     build, -1 when the target is a physical register (or the
     preference has none). *)
  let resolve avail ((p : Rpg.pref), tgt, fixed) =
    let target_reg t delta =
      (* Color of the target as a machine-register index; -1 if none. *)
      let c = if tgt < 0 then Reg.phys_index t else color_idx.(tgt) in
      if c >= 0 then begin
        let want = c + delta in
        if shift_ok want && avail land (1 lsl want) <> 0 then 1 lsl want
        else dead
      end
      else if Regbits.Set.mem spilled_bits tgt then dead
      else defer
    in
    match p.Rpg.target with
    | Rpg.Coalesce t -> target_reg t 0
    | Rpg.Seq_plus t -> target_reg t 1
    | Rpg.Seq_minus t -> target_reg t (-1)
    | Rpg.Kind ->
        let volatile = p.Rpg.weight.Strength.vol >= p.Rpg.weight.Strength.nonvol in
        avail land (if volatile then vol_mask else nonvol_mask)
    | Rpg.In_limited -> avail land Machine.limited_mask m
    | Rpg.Memory -> if fixed < 0 then dead else want_memory
  in
  (* Effective strength of a resolved preference.  Coalesce and
     sequential preferences use the paper's memory-anchored Str with the
     weight side matching the register they screen to (the "parameter"
     of §5.1); honoring one at a non-positive effective strength would
     lose to spilling, so such preferences are treated as dead.  Kind
     preferences rank by the benefit of the right kind over the wrong
     one (for the paper's v4 the two formulations coincide at 28), and
     limited-set preferences by the fixup saving. *)
  let eff_strength ((p : Rpg.pref), _, fixed) r =
    if r = want_memory then fixed
    else if r <= 0 then 0
    else
      match p.Rpg.target with
      | Rpg.Coalesce _ | Rpg.Seq_plus _ | Rpg.Seq_minus _ ->
          (* The screen is a singleton here; test its volatility. *)
          let volatile = r land vol_mask <> 0 in
          Strength.weight_for ~volatile p.Rpg.weight
      | Rpg.Kind | Rpg.In_limited -> fixed
      | Rpg.Memory -> 0
  in
  (* Step 3 summaries: per node, the number of honorable preferences
     and their strongest / weakest effective strengths; the policy
     metric (differential between strongest and weakest, a single
     preference counting its full strength) derives from them.
     Recomputed lazily when the invalidation contract (module header)
     marks them dirty. *)
  let sm_cnt = Array.make n_nodes 0 in
  let sm_max = Array.make n_nodes 0 in
  let sm_min = Array.make n_nodes 0 in
  let sm_ok = Array.make n_nodes false in
  let summary_of i =
    if not sm_ok.(i) then begin
      let pr = prefs_of i in
      let mx = ref 0 and mn = ref max_int and cnt = ref 0 in
      if Array.length pr > 0 then begin
        let avail = available_idx i in
        for j = 0 to Array.length pr - 1 do
          let pe = pr.(j) in
          let e = eff_strength pe (resolve avail pe) in
          if e > 0 then begin
            incr cnt;
            if e > !mx then mx := e;
            if e < !mn then mn := e
          end
        done
      end;
      sm_cnt.(i) <- !cnt;
      sm_max.(i) <- !mx;
      sm_min.(i) <- !mn;
      sm_ok.(i) <- true
    end
  in
  (* The policy metric: the differential between the strongest and
     weakest honorable preference, a single one counting its full
     strength, -1 with none.  The strongest is [sm_max] (0 with none). *)
  let differential i =
    match sm_cnt.(i) with
    | 0 -> -1
    | 1 -> sm_max.(i)
    | _ -> sm_max.(i) - sm_min.(i)
  in
  let costs_tiebreak n = Strength.spill_cost str n in
  let cost_arr = Array.make n_nodes 0 in
  let cost_ok = Array.make n_nodes false in
  let cost_of i =
    if not cost_ok.(i) then begin
      cost_arr.(i) <- costs_tiebreak (reg_of_idx i);
      cost_ok.(i) <- true
    end;
    cost_arr.(i)
  in
  (* Indexed binary max-heap over node indices.  Keys (hk1, hk2) are
     the policy pair captured at push/refresh time; the heap invariant
     always holds for the *stored* keys, and dirty members are re-keyed
     before any pick reads the root. *)
  let heap = Array.make n_nodes 0 in
  let hsize = ref 0 in
  let hpos = Array.make n_nodes (-1) in
  let hk1 = Array.make n_nodes 0 in
  let hk2 = Array.make n_nodes 0 in
  let better a b =
    (* Strict "a ranks above b": larger key, then larger spill cost,
       then smaller register id — the old fold's replacement test. *)
    hk1.(a) > hk1.(b)
    || (hk1.(a) = hk1.(b)
       && (hk2.(a) > hk2.(b)
          || (hk2.(a) = hk2.(b)
             && (cost_of a > cost_of b
                || (cost_of a = cost_of b
                   && Reg.compare (reg_of_idx a) (reg_of_idx b) < 0)))))
  in
  let swap x y =
    let a = heap.(x) and b = heap.(y) in
    heap.(x) <- b;
    heap.(y) <- a;
    hpos.(b) <- x;
    hpos.(a) <- y
  in
  let rec sift_up x =
    if x > 0 then begin
      let parent = (x - 1) / 2 in
      if better heap.(x) heap.(parent) then begin
        swap x parent;
        sift_up parent
      end
    end
  in
  let rec sift_down x =
    let l = (2 * x) + 1 and r = (2 * x) + 2 in
    let best = ref x in
    if l < !hsize && better heap.(l) heap.(!best) then best := l;
    if r < !hsize && better heap.(r) heap.(!best) then best := r;
    if !best <> x then begin
      swap x !best;
      sift_down !best
    end
  in
  let set_keys i =
    summary_of i;
    let d = differential i and s = sm_max.(i) in
    match policy with
    | Differential ->
        hk1.(i) <- d;
        hk2.(i) <- s
    | Strongest | Fifo ->
        hk1.(i) <- s;
        hk2.(i) <- d
  in
  let heap_push i =
    set_keys i;
    heap.(!hsize) <- i;
    hpos.(i) <- !hsize;
    incr hsize;
    sift_up (!hsize - 1)
  in
  let heap_remove i =
    let x = hpos.(i) in
    if x >= 0 then begin
      decr hsize;
      hpos.(i) <- -1;
      if x < !hsize then begin
        let last = heap.(!hsize) in
        heap.(x) <- last;
        hpos.(last) <- x;
        sift_up x;
        sift_down x
      end
    end
  in
  let heap_refresh i =
    let o1 = hk1.(i) and o2 = hk2.(i) in
    set_keys i;
    (* Unchanged keys leave the stored heap exactly as it was — the
       sifts would compare their way straight back to the same layout,
       so skip them. *)
    if hk1.(i) <> o1 || hk2.(i) <> o2 then begin
      let x = hpos.(i) in
      if x >= 0 then begin
        sift_up x;
        sift_down hpos.(i)
      end
    end
  in
  (* Dirty nodes, each once, on a stack flushed most recent first. *)
  let dirty = Array.make n_nodes false in
  let dirty_stack = Array.make n_nodes 0 in
  let n_dirty = ref 0 in
  let mark_dirty i =
    (* A node without preferences has the constant summary (0, 0, _) —
       no invalidation event can change its key, so never dirty it. *)
    match Rpg.prefs_idx rpg i with
    | [] -> ()
    | _ :: _ ->
        sm_ok.(i) <- false;
        if not dirty.(i) then begin
          dirty.(i) <- true;
          dirty_stack.(!n_dirty) <- i;
          incr n_dirty
        end
  in
  let flush_dirty () =
    while !n_dirty > 0 do
      decr n_dirty;
      let i = dirty_stack.(!n_dirty) in
      dirty.(i) <- false;
      if hpos.(i) >= 0 then heap_refresh i
    done
  in
  (* The summary-invalidation contract (module header).  [colored]
     carries the machine-register index the node just took, if any:
     graph neighbors then lose that register (forbidden-mask update)
     and their summaries go dirty in the same walk.  A neighbor that
     already had the register forbidden keeps its availability, so it
     is not dirtied: whatever else of its summary reads this node's
     color comes through a preference edge, and the walks below cover
     those.  A spill takes no color, so neighbors are left alone; only
     the preference edges — sources of incoming preferences, targets
     of outgoing ones — are invalidated on both paths. *)
  let invalidate_after i ~colored =
    (match colored with
    | Some c ->
        let bit = 1 lsl c in
        Igraph.iter_adj_idx g i (fun nb ->
            let f = forbidden.(nb) in
            if f land bit = 0 then begin
              forbidden.(nb) <- f lor bit;
              mark_dirty nb
            end)
    | None -> ());
    Array.iter (fun (_, ui, _) -> mark_dirty ui) (incoming_of i);
    Array.iter (fun (_, tgt, _) -> if tgt >= 0 then mark_dirty tgt) (prefs_of i)
  in
  let risk_bits = Regbits.Set.create n_nodes in
  Reg.Set.iter (fun r -> Regbits.Set.add risk_bits (nidx r)) spill_risk;
  let is_risk i = Regbits.Set.mem risk_bits i in
  (* Ready set, as node indices.  [risk_list] keeps CPG-queue order;
     under Fifo the whole queue does. *)
  let fifo_q : int list ref = ref [] in
  let risk_list : int list ref = ref [] in
  let add_ready news =
    match policy with
    | Fifo -> fifo_q := news @ !fifo_q
    | Differential | Strongest ->
        risk_list := List.filter is_risk news @ !risk_list;
        List.iter (fun i -> if not (is_risk i) then heap_push i) news
  in
  let remove_ready i =
    match policy with
    | Fifo -> fifo_q := List.filter (fun x -> x <> i) !fifo_q
    | Differential | Strongest ->
        (* An at-risk node is removed only once picked, and
           [pick_node] picks the list's head whenever it is nonempty;
           nothing touches the list in between. *)
        if is_risk i then risk_list := List.tl !risk_list else heap_remove i
  in
  (* Newly-ready successors, already as indices on the shared-numbering
     fast path; [Cpg.resolve_idx] hands them back in the same
     descending-register order the [Reg.t] layer does. *)
  let resolve_ready i n =
    if cpg_shares_numbering then Cpg.resolve_idx cpg i
    else List.map nidx (Cpg.resolve cpg n)
  in
  add_ready (List.map nidx (Cpg.initial cpg));
  let pick_node () =
    match policy with
    | Fifo -> (
        match !fifo_q with
        | [] -> None
        | first :: _ -> (
            (* Nodes that optimistic simplification could not guarantee
               a color for go as early as the partial order allows:
               coloring them while registers remain free is how the
               select phase keeps spill decisions ahead of preference
               resolution (§5.4). *)
            match List.filter is_risk !fifo_q with
            | at_risk :: _ -> Some at_risk
            | [] -> Some first))
    | Differential | Strongest -> (
        match !risk_list with
        | at_risk :: _ -> Some at_risk
        | [] ->
            if !hsize = 0 then None
            else begin
              flush_dirty ();
              Some heap.(0)
            end)
  in
  let finish i n ~colored =
    invalidate_after i ~colored;
    remove_ready i;
    add_ready (resolve_ready i n)
  in
  let spill i n =
    Regbits.Set.add spilled_bits i;
    finish i n ~colored:None
  in
  (* Scratch for [assign], grown to the longest preference list met:
     per preference its resolution ([sc_res]) and effective strength
     ([sc_eff]), and the honorable ones ranked strongest first
     ([sc_rank], preference positions). *)
  let sc_res = ref [||] and sc_eff = ref [||] and sc_rank = ref [||] in
  let assign i =
    let n = reg_of_idx i in
    let avail = available_idx i in
    if avail = 0 then spill i n
    else begin
      let pr = prefs_of i in
      let np = Array.length pr in
      if np > Array.length !sc_res then begin
        let len = max np (2 * Array.length !sc_res) in
        sc_res := Array.make len 0;
        sc_eff := Array.make len 0;
        sc_rank := Array.make len 0
      end;
      let res = !sc_res and eff = !sc_eff and rank = !sc_rank in
      (* Honorable preferences with positive effective strength,
         strongest first.  Each is inserted after every ranked one at
         least as strong, so equal strengths keep the prefs order (a
         stable ranking; the screen below depends on it). *)
      let n_hon = ref 0 in
      for j = 0 to np - 1 do
        let r = resolve avail pr.(j) in
        res.(j) <- r;
        let e = eff_strength pr.(j) r in
        if e > 0 then begin
          eff.(j) <- e;
          let at = ref !n_hon in
          while !at > 0 && eff.(rank.(!at - 1)) < e do
            rank.(!at) <- rank.(!at - 1);
            decr at
          done;
          rank.(!at) <- j;
          incr n_hon
        end
      done;
      if !n_hon > 0 && res.(rank.(0)) = want_memory then begin
        incr n_active;
        spill i n
      end
      else begin
        (* Step 4.2: screen, strongest first. *)
        let current = ref avail in
        for q = 0 to !n_hon - 1 do
          let j = rank.(q) in
          let r = res.(j) in
          if r > 0 then begin
            let s = r land !current in
            if s <> 0 then begin
              current := s;
              let p, _, _ = pr.(j) in
              match p.Rpg.target with
              | Rpg.Coalesce _ -> incr n_coalesce
              | Rpg.Seq_plus _ | Rpg.Seq_minus _ -> incr n_seq
              | Rpg.Kind -> incr n_kind
              | Rpg.In_limited -> incr n_limited
              | Rpg.Memory -> ()
            end
          end
        done;
        (* Step 4.3: keep future preferences honorable — both this
           node's deferred preferences and unallocated nodes' preferences
           targeting this node.  [c - 1 available to t] is a left shift
           of t's availability mask, [c + 1] a right shift. *)
        let keep_if_nonempty s =
          if s land !current <> 0 then current := s land !current
        in
        (* A [defer] resolution implies a virtual, pre-indexed target:
           physical targets always resolve to a screen or [dead]. *)
        for j = 0 to np - 1 do
          if res.(j) = defer then
            let (p : Rpg.pref), tgt, _ = pr.(j) in
            match p.Rpg.target with
            | Rpg.Coalesce _ -> keep_if_nonempty (available_idx tgt)
            | Rpg.Seq_plus _ ->
                (* n wants reg(t)+1: keep c with c-1 available to t. *)
                keep_if_nonempty (available_idx tgt lsl 1 land all_mask)
            | Rpg.Seq_minus _ -> keep_if_nonempty (available_idx tgt lsr 1)
            | Rpg.Kind | Rpg.In_limited | Rpg.Memory -> ()
        done;
        Array.iter
          (fun (virt, ui, (p : Rpg.pref)) ->
            if
              virt
              && color_idx.(ui) < 0
              && not (Regbits.Set.mem spilled_bits ui)
            then
              match p.Rpg.target with
              | Rpg.Coalesce _ -> keep_if_nonempty (available_idx ui)
              | Rpg.Seq_plus _ ->
                  (* u wants reg(n)+1: keep c with c+1 available to u. *)
                  keep_if_nonempty (available_idx ui lsr 1)
              | Rpg.Seq_minus _ ->
                  keep_if_nonempty (available_idx ui lsl 1 land all_mask)
              | Rpg.Kind | Rpg.In_limited | Rpg.Memory -> ())
          (incoming_of i);
        (* Step 4.4: deterministic final pick ({!Machine.pick}) — the
           lowest register of the better-scoring kind that [current]
           still offers, else (or on a tie) the lowest of [current].
           [current] is never empty: it starts as [avail] and every
           screen above keeps it nonempty. *)
        let sv, sn =
          if fallback_nonvolatile_first then (0, 1)
          else
            let w = Strength.volatility str n in
            (w.Strength.vol, w.Strength.nonvol)
        in
        let prefer =
          if sv > sn then vol_mask else if sn > sv then nonvol_mask else 0
        in
        let choice = Machine.pick ~prefer !current in
        color_idx.(i) <- choice;
        colored := i :: !colored;
        finish i n ~colored:(Some choice)
      end
    end
  in
  let guard = ref (List.length (Cpg.nodes cpg) + 1) in
  let rec loop () =
    decr guard;
    if !guard < 0 then invalid_arg "Pdgc_select.run: traversal did not settle";
    match pick_node () with
    | None -> ()
    | Some i ->
        assign i;
        loop ()
  in
  loop ();
  let colors : Reg.t Reg.Tbl.t = Reg.Tbl.create 64 in
  List.iter
    (fun i ->
      let n = reg_of_idx i in
      Reg.Tbl.replace colors n (Reg.phys (Igraph.cls g n) color_idx.(i)))
    (List.rev !colored);
  {
    colors;
    spilled = Regbits.Set.to_reg_set cpt spilled_bits;
    stats =
      {
        honored_coalesce = !n_coalesce;
        honored_sequential = !n_seq;
        honored_kind = !n_kind;
        honored_limited = !n_limited;
        active_spills = !n_active;
      };
  }
