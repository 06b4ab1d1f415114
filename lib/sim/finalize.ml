type t = {
  func : Cfg.func;
  moves_eliminated : int;
  moves_kept : int;
  pairs_fused : int;
  callee_saved : int;
  caller_save_instrs : int;
}

let apply (m : Machine.t) (res : Alloc_common.result) =
  let fn = res.Alloc_common.func in
  let assign r =
    if Reg.is_phys r then r
    else
      match Reg.Tbl.find_opt res.Alloc_common.alloc r with
      | Some c -> c
      | None ->
          invalid_arg
            (Printf.sprintf "Finalize.apply: %s unallocated" (Reg.to_string r))
  in
  let moves_eliminated = ref 0 and moves_kept = ref 0 in
  (* Rewrite registers and delete now-trivial copies. *)
  let blocks =
    List.map
      (fun (b : Cfg.block) ->
        let instrs =
          List.filter_map
            (fun i ->
              let kind = Instr.map_regs assign i.Instr.kind in
              match kind with
              | Instr.Move { dst; src } when Reg.equal dst src ->
                  incr moves_eliminated;
                  None
              | Instr.Move _ ->
                  incr moves_kept;
                  Some { i with Instr.kind }
              | _ -> Some { i with Instr.kind })
            (Array.to_list b.Cfg.instrs)
        in
        { b with Cfg.instrs = Array.of_list instrs })
      fn.Cfg.blocks
  in
  let fn = Cfg.with_blocks fn blocks in
  (* Fuse adjacent loads whose destinations satisfy the pairing rule. *)
  let pairs_fused = ref 0 in
  let word = 8 in
  let rec fuse = function
    | ({ Instr.kind = Instr.Load l1; _ } as i1)
      :: { Instr.kind = Instr.Load l2; _ }
      :: rest
      when Reg.equal l1.base l2.base
           && l2.offset = l1.offset + word
           && Machine.pair_ok m l1.dst l2.dst ->
        incr pairs_fused;
        {
          i1 with
          Instr.kind =
            Instr.Load_pair
              {
                dst_lo = l1.dst;
                dst_hi = l2.dst;
                base = l1.base;
                offset = l1.offset;
              };
        }
        :: fuse rest
    | i :: rest -> i :: fuse rest
    | [] -> []
  in
  let blocks =
    List.map
      (fun (b : Cfg.block) ->
        { b with Cfg.instrs = Array.of_list (fuse (Array.to_list b.Cfg.instrs)) })
      fn.Cfg.blocks
  in
  let fn = Cfg.with_blocks fn blocks in
  (* Callee saves: non-volatile registers this function writes, in
     ascending register order. *)
  let written = Array.make Reg.first_virtual false in
  Cfg.iter_instrs fn (fun _ i ->
      List.iter
        (fun r -> if Reg.is_phys r then written.(r) <- true)
        (Instr.defs i.Instr.kind));
  let to_save = ref [] in
  for r = Reg.first_virtual - 1 downto 0 do
    if written.(r) && Machine.is_allocatable m r && not (Machine.is_volatile m r)
    then to_save := r :: !to_save
  done;
  let to_save = !to_save in
  let slot_base = Spill_insert.next_slot fn in
  let save_slots = List.mapi (fun idx r -> (r, slot_base + idx)) to_save in
  let caller_slot = ref (slot_base + List.length save_slots) in
  let caller_save_instrs = ref 0 in
  (* Caller saves need liveness on the rewritten body: the allocatable
     volatile registers live across a call, its result excepted.  The
     walk runs on the liveness bitsets; a [Reg.Set] (for the ascending
     register order of the slots) is built only at a call. *)
  let live = Liveness.compute fn in
  let cpt = Liveness.compact live in
  let volatile = Regbits.Set.create (Regbits.size cpt) in
  for idx = 0 to Regbits.size cpt - 1 do
    let r = Regbits.reg_at cpt idx in
    if Machine.is_allocatable m r && Machine.is_volatile m r then
      Regbits.Set.add volatile idx
  done;
  let blocks =
    List.map
      (fun (b : Cfg.block) ->
        let instrs = ref [] in
        Liveness.iter_block_backward_bits live b ~f:(fun ~live_out i ->
            match i.Instr.kind with
            | Instr.Call { dst; _ } ->
                let across =
                  Regbits.Set.fold live_out ~init:Reg.Set.empty
                    ~f:(fun acc idx ->
                      if Regbits.Set.mem volatile idx then
                        Reg.Set.add (Regbits.reg_at cpt idx) acc
                      else acc)
                in
                let across =
                  match dst with
                  | Some d -> Reg.Set.remove d across
                  | None -> across
                in
                let saves, restores =
                  Reg.Set.fold
                    (fun r (sv, rs) ->
                      let slot = !caller_slot in
                      incr caller_slot;
                      caller_save_instrs := !caller_save_instrs + 2;
                      ( Cfg.instr fn (Instr.Spill { src = r; slot }) :: sv,
                        Cfg.instr fn (Instr.Reload { dst = r; slot }) :: rs ))
                    across ([], [])
                in
                instrs := saves @ (i :: restores) @ !instrs
            | _ -> instrs := i :: !instrs);
        { b with Cfg.instrs = Array.of_list !instrs })
      fn.Cfg.blocks
  in
  (* Prologue and per-return epilogue for callee saves. *)
  let prologue =
    List.map (fun (r, slot) -> Cfg.instr fn (Instr.Spill { src = r; slot }))
      save_slots
  in
  let epilogue () =
    List.map (fun (r, slot) -> Cfg.instr fn (Instr.Reload { dst = r; slot }))
      save_slots
  in
  let blocks =
    List.map
      (fun (b : Cfg.block) ->
        let instrs =
          List.concat_map
            (fun i ->
              match i.Instr.kind with
              | Instr.Ret _ -> epilogue () @ [ i ]
              | _ -> [ i ])
            (Array.to_list b.Cfg.instrs)
        in
        let instrs =
          if b.Cfg.label = fn.Cfg.entry then prologue @ instrs else instrs
        in
        { b with Cfg.instrs = Array.of_list instrs })
      blocks
  in
  {
    func = Cfg.with_blocks fn blocks;
    moves_eliminated = !moves_eliminated;
    moves_kept = !moves_kept;
    pairs_fused = !pairs_fused;
    callee_saved = List.length save_slots;
    caller_save_instrs = !caller_save_instrs;
  }
