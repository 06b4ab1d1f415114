(* Dense-bitset liveness.

   The fixpoint runs entirely over Regbits bitsets indexed by a
   per-function compact numbering — unions and equality checks are
   word-parallel — while the public API keeps the Reg.Set boundary the
   rest of the pipeline was written against.  Block-boundary Reg.Set
   views are converted lazily and memoized. *)

type t = {
  cpt : Regbits.compact;
  (* Backward solver tables: [input] is the fact at block exit (before
     the phi outflow is folded in), [output] the fact at block entry. *)
  exit_bits : (Instr.label, Regbits.Set.t) Hashtbl.t;
  entry_bits : (Instr.label, Regbits.Set.t) Hashtbl.t;
  phi_outflow_bits : (Instr.label, Regbits.Set.t) Hashtbl.t;
  (* Memoized Reg.Set views of live_in / live_out. *)
  in_sets : (Instr.label, Reg.Set.t) Hashtbl.t;
  out_sets : (Instr.label, Reg.Set.t) Hashtbl.t;
}

let compact t = t.cpt

(* Registers a block makes live in its predecessors via phi sources,
   keyed by predecessor label. *)
let phi_outflow cpt (f : Cfg.func) =
  let tbl = Hashtbl.create 16 in
  Cfg.iter_instrs f (fun _ i ->
      List.iter
        (fun (pred, r) ->
          let cur =
            match Hashtbl.find_opt tbl pred with
            | Some s -> s
            | None ->
                let s = Regbits.Set.create (Regbits.size cpt) in
                Hashtbl.replace tbl pred s;
                s
          in
          Regbits.Set.add cur (Regbits.index cpt r))
        (Instr.phi_srcs i.Instr.kind));
  tbl

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
  let outflow = phi_outflow cpt f in
  let module F = struct
    type t = Regbits.Set.t

    let bottom = Regbits.Set.create n
    let equal = Regbits.Set.equal
    let join = Regbits.Set.union
  end in
  let module S = Solver.Make (F) in
  let transfer (b : Cfg.block) live_out =
    let live = Regbits.Set.copy live_out in
    (match Hashtbl.find_opt outflow b.Cfg.label with
    | Some extra -> ignore (Regbits.Set.union_into ~src:extra ~dst:live)
    | None -> ());
    let instrs = b.Cfg.instrs in
    for k = Array.length instrs - 1 downto 0 do
      transfer_instr_bits cpt live instrs.(k)
    done;
    live
  in
  let result = S.solve ~direction:Solver.Backward ~transfer f in
  {
    cpt;
    exit_bits = result.S.input;
    entry_bits = result.S.output;
    phi_outflow_bits = outflow;
    in_sets = Hashtbl.create 16;
    out_sets = Hashtbl.create 16;
  }

let scratch_live_out t l =
  let live =
    match Hashtbl.find_opt t.exit_bits l with
    | Some s -> Regbits.Set.copy s
    | None -> Regbits.Set.create (Regbits.size t.cpt)
  in
  (match Hashtbl.find_opt t.phi_outflow_bits l with
  | Some extra -> ignore (Regbits.Set.union_into ~src:extra ~dst:live)
  | None -> ());
  live


let live_in_bits t l =
  match Hashtbl.find_opt t.entry_bits l with
  | Some s -> Regbits.Set.copy s
  | None -> Regbits.Set.create (Regbits.size t.cpt)

let live_out t l =
  match Hashtbl.find_opt t.out_sets l with
  | Some s -> s
  | None ->
      let s = Regbits.Set.to_reg_set t.cpt (scratch_live_out t l) in
      Hashtbl.replace t.out_sets l s;
      s

let live_in t l =
  match Hashtbl.find_opt t.in_sets l with
  | Some s -> s
  | None ->
      let s =
        match Hashtbl.find_opt t.entry_bits l with
        | Some bits -> Regbits.Set.to_reg_set t.cpt bits
        | None -> Reg.Set.empty
      in
      Hashtbl.replace t.in_sets l s;
      s

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
  let live = ref (live_out t b.Cfg.label) in
  let instrs = b.Cfg.instrs in
  let acc = ref init in
  for k = Array.length instrs - 1 downto 0 do
    let i = instrs.(k) in
    acc := f !acc ~live_out:!live i;
    live := transfer_instr !live i
  done;
  !acc

let live_across_calls (f : Cfg.func) t =
  let counts = Hashtbl.create 64 in
  let bump r =
    let cur = try Hashtbl.find counts r with Not_found -> 0 in
    Hashtbl.replace counts r (cur + 1)
  in
  List.iter
    (fun b ->
      iter_block_backward_bits t b ~f:(fun ~live_out i ->
          match i.Instr.kind with
          | Instr.Call { dst; _ } ->
              let skip =
                match dst with
                | Some d -> Regbits.find t.cpt d
                | None -> None
              in
              Regbits.Set.iter live_out (fun idx ->
                  if skip <> Some idx then bump (Regbits.reg_at t.cpt idx))
          | _ -> ()))
    f.Cfg.blocks;
  counts
