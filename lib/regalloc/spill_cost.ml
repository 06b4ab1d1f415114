type info = { spill_cost : int; n_defs : int; n_uses : int }

(* Costs live in flat int arrays over the round's compact register
   numbering (shared with liveness and the interference graph), not a
   hashtable: the accumulation sweep and the merged-cost pass are array
   walks. *)
type t = {
  cpt : Regbits.compact;
  spill : int array;
  defs : int array;
  uses : int array;
}

let compute ~loops ~cpt (f : Cfg.func) =
  let n = Regbits.size cpt in
  let t =
    {
      cpt;
      spill = Array.make n 0;
      defs = Array.make n 0;
      uses = Array.make n 0;
    }
  in
  List.iter
    (fun (b : Cfg.block) ->
      let freq = Loops.frequency loops b.Cfg.label in
      Array.iter
        (fun (i : Instr.t) ->
          let kind = i.Instr.kind in
          List.iter
            (fun r ->
              if Reg.is_virtual r then begin
                let idx = Regbits.index cpt r in
                t.spill.(idx) <- t.spill.(idx) + (Costs.store * freq);
                t.defs.(idx) <- t.defs.(idx) + 1
              end)
            (Instr.defs kind);
          List.iter
            (fun r ->
              if Reg.is_virtual r then begin
                let idx = Regbits.index cpt r in
                t.spill.(idx) <- t.spill.(idx) + (Costs.load * freq);
                t.uses.(idx) <- t.uses.(idx) + 1
              end)
            (Instr.uses kind))
        b.Cfg.instrs)
    f.Cfg.blocks;
  t

let info t r =
  match Regbits.find t.cpt r with
  | Some idx ->
      { spill_cost = t.spill.(idx); n_defs = t.defs.(idx); n_uses = t.uses.(idx) }
  | None -> { spill_cost = 0; n_defs = 0; n_uses = 0 }

let spill_cost t r =
  let idx = Regbits.find_index t.cpt r in
  if idx < 0 then 0 else t.spill.(idx)

(* One pass over the cost table sums every register into its merge
   representative's slot (indexed by the graph's root index); each
   query is then an array read. *)
let merged_spill_costs t g =
  let sums = Array.make (Regbits.size (Igraph.compact g)) 0 in
  Array.iteri
    (fun idx c ->
      if c <> 0 then begin
        let root = Igraph.index_of g (Regbits.reg_at t.cpt idx) in
        sums.(root) <- sums.(root) + c
      end)
    t.spill;
  fun rep -> sums.(Igraph.index_of g rep)

(* Each root's metric is computed on its first query and kept in a
   float array over the graph's numbering; a metric is never negative,
   so [-1.] marks an empty slot.  The graph is not merged after the
   first query (spill_cost.mli), so degrees and merged costs, hence the
   cached values, hold for the round. *)
let chaitin_metric t g ~no_spill =
  let merged = lazy (merged_spill_costs t g) in
  let cache = lazy (Array.make (Regbits.size (Igraph.compact g)) (-1.)) in
  fun rep ->
    let cache = Lazy.force cache and i = Igraph.index_of g rep in
    let m = cache.(i) in
    if m >= 0. then m
    else
      let m =
        if no_spill rep then infinity
        else
          let cost = float_of_int (Lazy.force merged rep) in
          let deg = float_of_int (max 1 (Igraph.degree g rep)) in
          cost /. deg
      in
      cache.(i) <- m;
      m
