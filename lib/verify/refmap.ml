module ISet = Set.Make (Int)

(* A location of the final code. *)
module Key = struct
  type t = R of Reg.t | S of int

  let compare = Stdlib.compare
end

module KM = Map.Make (Key)

(* What a final location holds, described in terms of the *reference*
   execution: the set of reference registers and reference frame slots
   whose current values all equal this location's content. *)
type content =
  | Holds of { regs : Reg.Set.t; slots : ISet.t }
  | Clobbered of int  (** trashed by the call with this instruction id *)
  | Conflict  (** holds different values along incoming paths *)

let identity = function
  | Key.R r -> Holds { regs = Reg.Set.singleton r; slots = ISet.empty }
  | Key.S s -> Holds { regs = Reg.Set.empty; slots = ISet.singleton s }

let content_equal a b =
  match (a, b) with
  | Holds a, Holds b ->
      Reg.Set.equal a.regs b.regs && ISet.equal a.slots b.slots
  | Clobbered i, Clobbered j -> i = j
  | Conflict, Conflict -> true
  | _ -> false

let join_content a b =
  match (a, b) with
  | Holds a, Holds b ->
      Holds
        { regs = Reg.Set.inter a.regs b.regs; slots = ISet.inter a.slots b.slots }
  | Conflict, _ | _, Conflict -> Conflict
  | Clobbered i, Clobbered j -> Clobbered (min i j)
  | (Clobbered _ as c), Holds _ | Holds _, (Clobbered _ as c) -> c

(* Out of an entry's map, absent keys mean identity: the final location
   still holds what the same-named reference location holds.  That is
   exactly the state on function entry. *)
let get st key = match KM.find_opt key st with Some c -> c | None -> identity key

let set st key c =
  if content_equal c (identity key) then KM.remove key st else KM.add key c st

let normalize st = KM.filter (fun k c -> not (content_equal c (identity k))) st

module Fact = struct
  (* [None] = unreachable. *)
  type t = content KM.t option

  let bottom = None

  let equal a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b -> KM.equal content_equal a b
    | _ -> false

  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b ->
        Some
          (KM.merge
             (fun key ca cb ->
               let ca = match ca with Some c -> c | None -> identity key in
               let cb = match cb with Some c -> c | None -> identity key in
               let c = join_content ca cb in
               if content_equal c (identity key) then None else Some c)
             a b)
end

module S = Solver.Make (Fact)

(* Lockstep pairing of a reference block against its final block,
   matched by instruction id (finalization preserves the ids of every
   retained instruction). *)
type step =
  | Both of Instr.t * Instr.t
  | Ref_only of Instr.t  (** deleted by finalization (trivial copies) *)
  | Final_only of Instr.t  (** inserted saves and restores *)
  | Fused of { lo : Instr.t; mid : Instr.t list; hi : Instr.t; pair : Instr.t }

exception Unallocated of Reg.t

let word = 8

let func (m : Machine.t) ~(reference : Cfg.func) ~(alloc : Reg.t Reg.Tbl.t)
    ~(final : Cfg.func) =
  let fname = reference.Cfg.name in
  let assign r =
    if Reg.is_phys r then r
    else
      match Reg.Tbl.find_opt alloc r with
      | Some c -> c
      | None -> raise (Unallocated r)
  in
  let structural_diags = ref [] in
  let diag ?block ?index ?instr ?reg ?severity reason fmt =
    Format.kasprintf
      (fun message ->
        Diagnostic.v ?block ?index ?instr ?reg ?severity ~func:fname reason
          message)
      fmt
  in
  (* --- instruction pairing, per block ------------------------------- *)
  let ids instrs =
    Array.fold_left (fun s (i : Instr.t) -> ISet.add i.Instr.id s) ISet.empty
      instrs
  in
  let pair_block (rb : Cfg.block) (fb : Cfg.block) =
    let label = rb.Cfg.label in
    let ref_ids = ids rb.Cfg.instrs and fin_ids = ids fb.Cfg.instrs in
    let emit d = structural_diags := d :: !structural_diags in
    let rec walk refs fins =
      match (refs, fins) with
      | [], [] -> []
      | (r : Instr.t) :: rt, [] -> Ref_only r :: walk rt []
      | [], (f : Instr.t) :: ft -> Final_only f :: walk [] ft
      | (r : Instr.t) :: rt, (f : Instr.t) :: ft ->
          if r.Instr.id = f.Instr.id then
            match (r.Instr.kind, f.Instr.kind) with
            | ( Instr.Load { base = l1base; offset = l1off; _ },
                Instr.Load_pair _ ) -> (
                (* The pair consumed a second reference load further
                   down; anything in between was deleted. *)
                let rec grab mid = function
                  | (h : Instr.t) :: tl
                    when not (ISet.mem h.Instr.id fin_ids) -> (
                      match h.Instr.kind with
                      | Instr.Load { base; offset; _ }
                        when Reg.equal base l1base && offset = l1off + word ->
                          Some (List.rev mid, h, tl)
                      | _ -> grab (h :: mid) tl)
                  | _ -> None
                in
                match grab [] rt with
                | Some (mid, hi, rt') ->
                    Fused { lo = r; mid; hi; pair = f } :: walk rt' ft
                | None ->
                    emit
                      (diag ~block:label ~instr:f.Instr.id Diagnostic.Structure
                         "paired load has no matching second reference load");
                    Both (r, f) :: walk rt ft)
            | _ -> Both (r, f) :: walk rt ft
          else if
            (* An inserted restore acts the instant the call returns,
               before any deleted reference copies that sit between the
               call and the next retained instruction are replayed.
               Inserted saves stay put: they must capture the copies. *)
            (not (ISet.mem f.Instr.id ref_ids))
            && (match f.Instr.kind with Instr.Reload _ -> true | _ -> false)
          then Final_only f :: walk refs ft
          else if not (ISet.mem r.Instr.id fin_ids) then
            Ref_only r :: walk rt fins
          else if not (ISet.mem f.Instr.id ref_ids) then
            Final_only f :: walk refs ft
          else begin
            emit
              (diag ~block:label ~instr:f.Instr.id Diagnostic.Structure
                 "instructions %d and %d reordered by finalization" r.Instr.id
                 f.Instr.id);
            List.map (fun i -> Ref_only i) refs
            @ List.map (fun i -> Final_only i) fins
          end
    in
    walk (Array.to_list rb.Cfg.instrs) (Array.to_list fb.Cfg.instrs)
  in
  let steps_of = Hashtbl.create 16 in
  let fin_blocks = Hashtbl.create 16 in
  List.iter
    (fun (b : Cfg.block) -> Hashtbl.replace fin_blocks b.Cfg.label b)
    final.Cfg.blocks;
  List.iter
    (fun (rb : Cfg.block) ->
      match Hashtbl.find_opt fin_blocks rb.Cfg.label with
      | Some fb -> Hashtbl.replace steps_of rb.Cfg.label (pair_block rb fb)
      | None ->
          structural_diags :=
            diag ~block:rb.Cfg.label Diagnostic.Structure
              "block L%d missing from the final code" rb.Cfg.label
            :: !structural_diags)
    reference.Cfg.blocks;
  List.iter
    (fun (fb : Cfg.block) ->
      if not (List.exists (fun (rb : Cfg.block) -> rb.Cfg.label = fb.Cfg.label)
                reference.Cfg.blocks)
      then
        structural_diags :=
          diag ~block:fb.Cfg.label Diagnostic.Structure
            "block L%d invented by finalization" fb.Cfg.label
            :: !structural_diags)
    final.Cfg.blocks;
  (* --- state updates ------------------------------------------------ *)
  let kill_reg_name v st =
    KM.map
      (function
        | Holds h when Reg.Set.mem v h.regs ->
            Holds { h with regs = Reg.Set.remove v h.regs }
        | c -> c)
      st
  in
  let kill_slot_name s st =
    KM.map
      (function
        | Holds h when ISet.mem s h.slots ->
            Holds { h with slots = ISet.remove s h.slots }
        | c -> c)
      st
  in
  (* [vd]'s new value lives (only) in final register [cd]. *)
  let define st vd cd =
    let st = kill_reg_name vd st in
    set st (Key.R cd) (Holds { regs = Reg.Set.singleton vd; slots = ISet.empty })
  in
  (* [vd] is a copy of whatever [src_content] describes. *)
  let copy_define st ~src_content vd cd =
    let st = kill_reg_name vd st in
    let c =
      match src_content with
      | Holds h -> Holds { h with regs = Reg.Set.add vd h.regs }
      | Clobbered _ as c -> c
      | Conflict ->
          (* The use check already reported the root cause. *)
          Holds { regs = Reg.Set.singleton vd; slots = ISet.empty }
    in
    set st (Key.R cd) c
  in
  (* --- the lockstep transfer function ------------------------------- *)
  (* [emit] is a no-op during the fixpoint and collects diagnostics in
     the final reporting pass. *)
  let run_steps ~emit label steps st =
    let use_check st (i : Instr.t) pos vref =
      let c = assign vref in
      match get st (Key.R c) with
      | Holds h when Reg.Set.mem vref h.regs -> ()
      | Clobbered id ->
          emit
            (diag ~block:label ~index:pos ~instr:i.Instr.id ~reg:c
               Diagnostic.Volatile_across_call
               "%s lives in caller-save %s across the call at id %d"
               (Reg.to_string vref) (Reg.to_string c) id)
      | Conflict ->
          emit
            (diag ~block:label ~index:pos ~instr:i.Instr.id ~reg:c
               Diagnostic.Clobbered_value
               "%s holds different values along incoming paths; %s is lost"
               (Reg.to_string c) (Reg.to_string vref))
      | Holds _ ->
          emit
            (diag ~block:label ~index:pos ~instr:i.Instr.id ~reg:c
               Diagnostic.Clobbered_value
               "%s no longer holds the value of %s at this use"
               (Reg.to_string c) (Reg.to_string vref))
    in
    (* One reference-side instruction (possibly deleted from the final
       code, in which case destination and source share a register). *)
    let ref_transfer st (r : Instr.t) pos ~deleted =
      match r.Instr.kind with
      | Instr.Move { dst; src } ->
          let cd = assign dst and cs = assign src in
          if deleted && not (Reg.equal cd cs) then
            emit
              (diag ~block:label ~index:pos ~instr:r.Instr.id ~reg:cd
                 Diagnostic.Structure
                 "deleted copy is not trivial: dst %s but src %s"
                 (Reg.to_string cd) (Reg.to_string cs));
          let src_content = get st (Key.R cs) in
          (* A copy is not a real use: a clobbered source is carried to
             the destination and reported where that is read. *)
          (match src_content with
          | Clobbered _ -> ()
          | _ -> use_check st r pos src);
          copy_define st ~src_content dst cd
      | Instr.Spill { src; slot } ->
          use_check st r pos src;
          let st = kill_slot_name slot st in
          let c =
            match get st (Key.R (assign src)) with
            | Holds h -> Holds { h with slots = ISet.add slot h.slots }
            | (Clobbered _ | Conflict) as c -> c
          in
          set st (Key.S slot) c
      | Instr.Reload { dst; slot } -> (
          let cd = assign dst in
          match get st (Key.S slot) with
          | Holds h when ISet.mem slot h.slots ->
              copy_define st ~src_content:(Holds h) dst cd
          | Holds _ | Clobbered _ | Conflict ->
              emit
                (diag ~block:label ~index:pos ~instr:r.Instr.id ~reg:cd
                   Diagnostic.Slot_mismatch
                   "frame slot %d does not hold the reference slot's value \
                    at this reload"
                   slot);
              define st dst cd)
      | Instr.Call { dst; args; _ } ->
          List.iter (use_check st r pos) args;
          (* Every caller-save register is trashed, and any location
             claiming to hold the value of a volatile physical register
             goes stale with it. *)
          let st =
            KM.map
              (function
                | Holds h ->
                    Holds
                      {
                        h with
                        regs =
                          Reg.Set.filter
                            (fun v -> not (Machine.is_volatile m v))
                            h.regs;
                      }
                | c -> c)
              st
          in
          let st =
            List.fold_left
              (fun st cls ->
                List.fold_left
                  (fun st idx ->
                    KM.add (Key.R (Reg.phys cls idx)) (Clobbered r.Instr.id) st)
                  st
                  (List.init m.Machine.n_volatile Fun.id))
              st
              [ Reg.Int_class; Reg.Float_class ]
          in
          Option.fold ~none:st ~some:(fun d -> define st d (assign d)) dst
      | Instr.Ret ret ->
          Option.iter (use_check st r pos) ret;
          List.iter
            (fun cls ->
              List.iter
                (fun idx ->
                  let c = Reg.phys cls (m.Machine.n_volatile + idx) in
                  match get st (Key.R c) with
                  | Holds h when Reg.Set.mem c h.regs -> ()
                  | _ ->
                      emit
                        (diag ~block:label ~index:pos ~instr:r.Instr.id ~reg:c
                           Diagnostic.Bad_callee_save
                           "callee-save %s does not hold its entry value at \
                            this return"
                           (Reg.to_string c)))
                (List.init (m.Machine.k - m.Machine.n_volatile) Fun.id))
            [ Reg.Int_class; Reg.Float_class ];
          st
      | Instr.Phi _ | Instr.Param _ ->
          emit
            (diag ~block:label ~index:pos ~instr:r.Instr.id Diagnostic.Structure
               "phi/param reached the allocator's output");
          st
      | kind ->
          List.iter (use_check st r pos) (Instr.uses kind);
          List.fold_left
            (fun st vd -> define st vd (assign vd))
            st (Instr.defs kind)
    in
    let step_transfer (st, pos) step =
      try
        match step with
        | Both (r, f) ->
            (* Structural faithfulness: the final instruction must be
               exactly the reference instruction under the renaming. *)
            (match Instr.map_regs assign r.Instr.kind with
            | expected when expected = f.Instr.kind -> ()
            | expected -> (
                match (expected, f.Instr.kind) with
                | ( Instr.Spill { src = es; slot = eslot },
                    Instr.Spill { src = fs; slot = fslot } )
                  when Reg.equal es fs && eslot <> fslot ->
                    emit
                      (diag ~block:label ~index:pos ~instr:f.Instr.id
                         Diagnostic.Slot_mismatch
                         "stored to frame slot %d where the reference stores \
                          to %d"
                         fslot eslot)
                | ( Instr.Reload { dst = ed; slot = eslot },
                    Instr.Reload { dst = fd; slot = fslot } )
                  when Reg.equal ed fd && eslot <> fslot ->
                    emit
                      (diag ~block:label ~index:pos ~instr:f.Instr.id
                         Diagnostic.Slot_mismatch
                         "reloaded from frame slot %d where the reference \
                          reloads from %d"
                         fslot eslot)
                | _ ->
                    emit
                      (diag ~block:label ~index:pos ~instr:f.Instr.id
                         Diagnostic.Structure
                         "final instruction %a is not the reference \
                          instruction %a under the allocation"
                         Instr.pp_kind f.Instr.kind Instr.pp_kind expected)));
            (ref_transfer st r pos ~deleted:false, pos + 1)
        | Ref_only r -> (ref_transfer st r pos ~deleted:true, pos)
        | Final_only f -> (
            match f.Instr.kind with
            | Instr.Spill { src; slot } ->
                (set st (Key.S slot) (get st (Key.R src)), pos + 1)
            | Instr.Reload { dst; slot } ->
                (set st (Key.R dst) (get st (Key.S slot)), pos + 1)
            | kind ->
                emit
                  (diag ~block:label ~index:pos ~instr:f.Instr.id
                     Diagnostic.Structure
                     "finalization inserted %a (only saves and restores are \
                      expected)"
                     Instr.pp_kind kind);
                ( List.fold_left
                    (fun st d -> set st (Key.R d) Conflict)
                    st (Instr.defs kind),
                  pos + 1 ))
        | Fused { lo; mid; hi; pair } ->
            let pl_lo, pl_hi, pl_base, pl_off =
              match pair.Instr.kind with
              | Instr.Load_pair { dst_lo; dst_hi; base; offset } ->
                  (dst_lo, dst_hi, base, offset)
              | _ -> assert false
            in
            let l1_dst, l1_base, l1_off =
              match lo.Instr.kind with
              | Instr.Load { dst; base; offset } -> (dst, base, offset)
              | _ -> assert false
            in
            let l2_dst, l2_base =
              match hi.Instr.kind with
              | Instr.Load { dst; base; _ } -> (dst, base)
              | _ -> assert false
            in
            if
              (not (Reg.equal (assign l1_dst) pl_lo))
              || (not (Reg.equal (assign l2_dst) pl_hi))
              || (not (Reg.equal (assign l1_base) pl_base))
              || l1_off <> pl_off
            then
              emit
                (diag ~block:label ~index:pos ~instr:pair.Instr.id
                   Diagnostic.Structure
                   "paired load does not match its two reference loads under \
                    the allocation");
            if not (Machine.pair_ok m pl_lo pl_hi) then
              emit
                (diag ~block:label ~index:pos ~instr:pair.Instr.id ~reg:pl_hi
                   Diagnostic.Bad_pair
                   "%s and %s violate the machine's pairing rule"
                   (Reg.to_string pl_lo) (Reg.to_string pl_hi));
            use_check st lo pos l1_base;
            let st = define st l1_dst pl_lo in
            (* Deleted copies between the two loads run, on the
               reference side, between the two halves; replay them
               there.  (The final machine writes dst_hi one step early;
               finalization cannot produce a deleted copy that reads
               it in between.) *)
            let st =
              List.fold_left
                (fun st mi -> ref_transfer st mi pos ~deleted:true)
                st mid
            in
            use_check st hi pos l2_base;
            (define st l2_dst pl_hi, pos + 1)
      with Unallocated v ->
        emit
          (diag ~block:label ~index:pos Diagnostic.Undefined_value ~reg:v
             "%s was never assigned a register" (Reg.to_string v));
        (st, pos + 1)
    in
    normalize (fst (List.fold_left step_transfer (st, 0) steps))
  in
  (* --- fixpoint then reporting pass --------------------------------- *)
  let silent _ = () in
  let transfer (b : Cfg.block) fact =
    match fact with
    | None -> None
    | Some st -> (
        match Hashtbl.find_opt steps_of b.Cfg.label with
        | Some steps -> Some (run_steps ~emit:silent b.Cfg.label steps st)
        | None -> Some st)
  in
  let sol =
    S.solve ~direction:Solver.Forward ~transfer ~entry_fact:(Some KM.empty)
      reference
  in
  let flow_diags = ref [] in
  List.iter
    (fun label ->
      match Hashtbl.find_opt sol.S.input label with
      | Some (Some st) -> (
          match Hashtbl.find_opt steps_of label with
          | Some steps ->
              ignore
                (run_steps
                   ~emit:(fun d -> flow_diags := d :: !flow_diags)
                   label steps st)
          | None -> ())
      | _ -> ())
    (Cfg.reverse_postorder reference);
  List.rev !structural_diags @ List.rev !flow_diags
