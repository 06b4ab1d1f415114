(* Dense-bitset liveness.

   The fixpoint runs entirely over Regbits bitsets indexed by a
   per-function compact numbering — unions and equality checks are
   word-parallel — while the public API keeps the Reg.Set boundary the
   rest of the pipeline was written against. *)

type t = {
  cpt : Regbits.compact;
  (* Backward solver facts: [input] is the fact at block exit (before
     the phi outflow is folded in), [output] the fact at block entry. *)
  facts : Regbits.Set.t Solver.result;
  (* Below, arrays indexed by block label. *)
  phi_outflow_bits : Regbits.Set.t array;
}

let compact t = t.cpt

(* The outflow of a block no phi reads from; shared and never mutated. *)
let no_outflow = Regbits.Set.create 0

(* Registers a block makes live in its predecessors via phi sources,
   indexed by predecessor label. *)
let phi_outflow cpt bound (f : Cfg.func) =
  let out = Array.make bound no_outflow in
  Cfg.iter_instrs f (fun _ i ->
      List.iter
        (fun (pred, r) ->
          let idx = Regbits.index cpt r in
          if pred >= 0 && pred < bound then begin
            if out.(pred) == no_outflow then
              out.(pred) <- Regbits.Set.create (Regbits.size cpt);
            Regbits.Set.add out.(pred) idx
          end)
        (Instr.phi_srcs i.Instr.kind));
  out

let outflow t l =
  if l >= 0 && l < Array.length t.phi_outflow_bits then t.phi_outflow_bits.(l)
  else no_outflow

(* In-place backward transfer across one instruction. *)
let transfer_instr_bits cpt live i =
  let kind = i.Instr.kind in
  List.iter
    (fun r -> Regbits.Set.remove live (Regbits.index cpt r))
    (Instr.defs kind);
  match kind with
  | Instr.Phi _ -> () (* phi uses flow into predecessors, not here *)
  | _ ->
      List.iter
        (fun r -> Regbits.Set.add live (Regbits.index cpt r))
        (Instr.uses kind)

let compute (f : Cfg.func) =
  let cpt = Regbits.of_func f in
  let n = Regbits.size cpt in
  let bound =
    1 + List.fold_left (fun m (b : Cfg.block) -> max m b.Cfg.label) (-1) f.Cfg.blocks
  in
  let outflow = phi_outflow cpt bound f in
  let module F = struct
    type t = Regbits.Set.t

    let bottom = Regbits.Set.create n
    let equal = Regbits.Set.equal
    let join = Regbits.Set.union
  end in
  let module S = Solver.Make (F) in
  let transfer (b : Cfg.block) live_out =
    let live = Regbits.Set.copy live_out in
    ignore (Regbits.Set.union_into ~src:outflow.(b.Cfg.label) ~dst:live);
    let instrs = b.Cfg.instrs in
    for k = Array.length instrs - 1 downto 0 do
      transfer_instr_bits cpt live instrs.(k)
    done;
    live
  in
  {
    cpt;
    facts = S.solve ~direction:Solver.Backward ~transfer f;
    phi_outflow_bits = outflow;
  }

let scratch_live_out t l =
  let live = Regbits.Set.copy (Solver.input t.facts l) in
  ignore (Regbits.Set.union_into ~src:(outflow t l) ~dst:live);
  live

let live_in_bits t l = Regbits.Set.copy (Solver.output t.facts l)

let live_in_mem t l r =
  let i = Regbits.find_index t.cpt r in
  i >= 0 && Regbits.Set.mem (Solver.output t.facts l) i

let iter_block_backward_bits t (b : Cfg.block) ~f =
  let live = scratch_live_out t b.Cfg.label in
  let instrs = b.Cfg.instrs in
  for k = Array.length instrs - 1 downto 0 do
    let i = instrs.(k) in
    f ~live_out:live i;
    transfer_instr_bits t.cpt live i
  done

(* Reg.Set boundary version: same walk, materializing the functional
   set incrementally as the seed implementation did. *)
let transfer_instr live i =
  let kind = i.Instr.kind in
  let live =
    List.fold_left (fun s r -> Reg.Set.remove r s) live (Instr.defs kind)
  in
  match kind with
  | Instr.Phi _ -> live
  | _ -> List.fold_left (fun s r -> Reg.Set.add r s) live (Instr.uses kind)

let fold_block_backward t (b : Cfg.block) ~init ~f =
  let live =
    ref (Regbits.Set.to_reg_set t.cpt (scratch_live_out t b.Cfg.label))
  in
  let instrs = b.Cfg.instrs in
  let acc = ref init in
  for k = Array.length instrs - 1 downto 0 do
    let i = instrs.(k) in
    acc := f !acc ~live_out:!live i;
    live := transfer_instr !live i
  done;
  !acc
