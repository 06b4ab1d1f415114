type weight = { vol : int; nonvol : int }

let best w = max w.vol w.nonvol
let weight_for ~volatile w = if volatile then w.vol else w.nonvol
let pp_weight ppf w = Format.fprintf ppf "vol:%d, n-vol:%d" w.vol w.nonvol

type t = {
  costs : Spill_cost.t;
  cpt : Regbits.compact; (* the liveness numbering [crossings] is over *)
  crossings : int array; (* by index: freq-weighted calls crossed *)
  freq : int array; (* by instr id (all below [next_instr_id]): frequency *)
  last_use : (int, Reg.Set.t) Hashtbl.t;
      (* copy id -> registers it uses that die there *)
  defs_at : (int, Reg.Set.t) Hashtbl.t; (* copy id -> defined registers *)
}

let build (fn : Cfg.func) ~costs ~live ~loops =
  let cpt = Liveness.compact live in
  (* Counted for every index, physical ones included: {!crossings}
     answers 0 for a physical register. *)
  let crossings = Array.make (Regbits.size cpt) 0 in
  let freq = Array.make fn.Cfg.next_instr_id 1 in
  let last_use = Hashtbl.create 64 in
  let defs_at = Hashtbl.create 256 in
  let is_live live_out r =
    match Regbits.find cpt r with
    | Some i -> Regbits.Set.mem live_out i
    | None -> false
  in
  List.iter
    (fun (b : Cfg.block) ->
      let f = Loops.frequency loops b.Cfg.label in
      Liveness.iter_block_backward_bits live b ~f:(fun ~live_out i ->
          freq.(i.Instr.id) <- f;
          (* [defs_at] / [last_use] back the Ideal_Inst_Cost test of
             {!coalesce}, which is only ever asked about copies:
             building the per-instruction sets for every instruction
             would dominate this pass for nothing. *)
          match i.Instr.kind with
          | Instr.Move _ ->
              Hashtbl.replace defs_at i.Instr.id
                (Reg.Set.of_list (Instr.defs i.Instr.kind));
              let dying =
                List.filter
                  (fun r -> not (is_live live_out r))
                  (Instr.uses i.Instr.kind)
                |> Reg.Set.of_list
              in
              if not (Reg.Set.is_empty dying) then
                Hashtbl.replace last_use i.Instr.id dying
          | Instr.Call { dst; _ } ->
              let skip =
                match Option.bind dst (Regbits.find cpt) with
                | Some d -> d
                | None -> -1
              in
              Regbits.Set.iter live_out (fun idx ->
                  if idx <> skip then
                    crossings.(idx) <- crossings.(idx) + f)
          | _ -> ()))
    fn.Cfg.blocks;
  { costs; cpt; crossings; freq; last_use; defs_at }

let of_analysis (a : Alloc_common.analysis) =
  build a.Alloc_common.fn ~costs:a.Alloc_common.costs ~live:a.Alloc_common.live
    ~loops:a.Alloc_common.loops

let spill_cost t r = Spill_cost.spill_cost t.costs r
let crossings t r =
  let i = Regbits.find_index t.cpt r in
  if i < 0 || not (Reg.is_virtual r) then 0 else t.crossings.(i)
let freq_of_instr t id =
  if id >= 0 && id < Array.length t.freq then t.freq.(id) else 1

(* Call_Cost(V) per register kind. *)
let call_cost t r =
  { vol = Costs.save_restore * crossings t r; nonvol = Costs.callee_save }

let base t r ~discount =
  let cc = call_cost t r in
  let s = spill_cost t r + discount in
  { vol = s - cc.vol; nonvol = s - cc.nonvol }

let volatility t r = base t r ~discount:0

let coalesce t r ~instr_id =
  (* Ideal_Inst_Cost drops to 0 when the copy defines V or is V's last
     use — in both cases honoring the coalesce deletes the copy. *)
  let defines =
    match Hashtbl.find_opt t.defs_at instr_id with
    | Some s -> Reg.Set.mem r s
    | None -> false
  in
  let dies =
    match Hashtbl.find_opt t.last_use instr_id with
    | Some s -> Reg.Set.mem r s
    | None -> false
  in
  let discount =
    if defines || dies then Costs.op * freq_of_instr t instr_id else 0
  in
  base t r ~discount

let sequential t r ~instr_id =
  base t r ~discount:(Costs.memory_op * freq_of_instr t instr_id)

let limited t r ~instr_id =
  base t r ~discount:(Costs.limited_fixup * freq_of_instr t instr_id)

let memory t r = max 0 (-best (volatility t r))
