type info = {
  spill_cost : int;
  op_cost : int;
  mem_cost : int;
  n_defs : int;
  n_uses : int;
}

(* Costs live in flat int arrays over the per-function compact register
   numbering (shared with liveness and the interference graph when the
   caller passes [cpt]), not a hashtable: the accumulation sweep and the
   merged-cost pass are array walks. *)
type t = {
  cpt : Regbits.compact;
  mutable spill : int array;
  mutable op : int array;
  mutable defs : int array;
  mutable uses : int array;
}

let zero = { spill_cost = 0; op_cost = 0; mem_cost = 0; n_defs = 0; n_uses = 0 }

let ensure t idx =
  let n = Array.length t.spill in
  if idx >= n then begin
    let n' = max (idx + 1) (max 16 (2 * n)) in
    let grow a = Array.append a (Array.make (n' - n) 0) in
    t.spill <- grow t.spill;
    t.op <- grow t.op;
    t.defs <- grow t.defs;
    t.uses <- grow t.uses
  end

(* Inst_Cost(I): 2 for memory operations, undefined (excluded) for
   calls, 1 otherwise. *)
let site_op_cost = function
  | Instr.Load _ | Instr.Load_pair _ | Instr.Store _ | Instr.Reload _
  | Instr.Spill _ ->
      Costs.memory_op
  | Instr.Call _ -> 0
  | Instr.Move _ | Instr.Const _ | Instr.Unop _ | Instr.Binop _ | Instr.Cmp _
  | Instr.Limited _ | Instr.Param _ | Instr.Jump _ | Instr.Branch _
  | Instr.Ret _ | Instr.Phi _ ->
      Costs.op

let compute ?loops ?cpt (f : Cfg.func) =
  let loops = match loops with Some l -> l | None -> Loops.compute f in
  let cpt = match cpt with Some c -> c | None -> Regbits.of_func f in
  let n = Regbits.size cpt in
  let t =
    {
      cpt;
      spill = Array.make n 0;
      op = Array.make n 0;
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
          let opc = site_op_cost kind * freq in
          List.iter
            (fun r ->
              if Reg.is_virtual r then begin
                let idx = Regbits.index cpt r in
                ensure t idx;
                t.spill.(idx) <- t.spill.(idx) + (Costs.store * freq);
                t.op.(idx) <- t.op.(idx) + opc;
                t.defs.(idx) <- t.defs.(idx) + 1
              end)
            (Instr.defs kind);
          List.iter
            (fun r ->
              if Reg.is_virtual r then begin
                let idx = Regbits.index cpt r in
                ensure t idx;
                t.spill.(idx) <- t.spill.(idx) + (Costs.load * freq);
                t.op.(idx) <- t.op.(idx) + opc;
                t.uses.(idx) <- t.uses.(idx) + 1
              end)
            (Instr.uses kind))
        b.Cfg.instrs)
    f.Cfg.blocks;
  t

let info t r =
  match Regbits.find t.cpt r with
  | Some idx when idx < Array.length t.spill ->
      let spill_cost = t.spill.(idx) and op_cost = t.op.(idx) in
      {
        spill_cost;
        op_cost;
        mem_cost = spill_cost + op_cost;
        n_defs = t.defs.(idx);
        n_uses = t.uses.(idx);
      }
  | Some _ | None -> zero

let spill_cost t r =
  match Regbits.find t.cpt r with
  | Some idx when idx < Array.length t.spill -> t.spill.(idx)
  | Some _ | None -> 0

let mem_cost t r = (info t r).mem_cost

(* One pass over the cost table sums every register into its merge
   representative's slot (indexed by the graph's root index); each
   query is then an array read.  The roots are resolved before [sums]
   is sized because resolving interns registers the graph has not seen. *)
let merged_spill_costs t g =
  let roots =
    Array.mapi
      (fun idx c ->
        if c = 0 then -1 else Igraph.index_of g (Regbits.reg_at t.cpt idx))
      t.spill
  in
  let sums = Array.make (Regbits.size (Igraph.compact g)) 0 in
  Array.iteri
    (fun idx root ->
      if root >= 0 then sums.(root) <- sums.(root) + t.spill.(idx))
    roots;
  fun rep ->
    let i = Igraph.index_of g rep in
    if i < Array.length sums then sums.(i) else 0

let chaitin_metric t g ~no_spill =
  let merged = lazy (merged_spill_costs t g) in
  fun rep ->
    if no_spill rep then infinity
    else
      let cost = float_of_int (Lazy.force merged rep) in
      let deg = float_of_int (max 1 (Igraph.degree g rep)) in
      cost /. deg
