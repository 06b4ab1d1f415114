module ISet = Set.Make (Int)

(* Must-initialize analysis over frame slots: a reload is only sound
   when every path from the entry has stored to its slot. *)
module Slot_fact = struct
  (* [None] = unreachable; [Some s] = slots definitely written. *)
  type t = ISet.t option

  let bottom = None

  let equal a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b -> ISet.equal a b
    | _ -> false

  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (ISet.inter a b)
end

module Slot_solver = Solver.Make (Slot_fact)

let slot_transfer (b : Cfg.block) fact =
  match fact with
  | None -> None
  | Some s ->
      Some
        (Array.fold_left
           (fun s (i : Instr.t) ->
             match i.Instr.kind with
             | Instr.Spill { slot; _ } -> ISet.add slot s
             | _ -> s)
           s b.Cfg.instrs)

let check_slots (fn : Cfg.func) emit =
  let diag ~block ~index ~instr reason fmt =
    Format.kasprintf
      (fun message ->
        Diagnostic.v ~block ~index ~instr ~func:fn.Cfg.name reason message)
      fmt
  in
  let sol =
    Slot_solver.solve ~direction:Solver.Forward ~transfer:slot_transfer
      ~entry_fact:(Some ISet.empty) fn
  in
  List.iter
    (fun (b : Cfg.block) ->
      match Solver.input sol b.Cfg.label with
      | Some init ->
          ignore
            (Array.fold_left
               (fun (init, index) (i : Instr.t) ->
                 (match i.Instr.kind with
                 | Instr.Reload { slot; _ } when not (ISet.mem slot init) ->
                     emit
                       (diag ~block:b.Cfg.label ~index ~instr:i.Instr.id
                          Diagnostic.Slot_mismatch
                          "frame slot %d reloaded before any store on some \
                           path"
                          slot)
                 | _ -> ());
                 match i.Instr.kind with
                 | Instr.Spill { slot; _ } -> (ISet.add slot init, index + 1)
                 | _ -> (init, index + 1))
               (init, 0) b.Cfg.instrs)
      | None -> () (* unreachable block *))
    fn.Cfg.blocks

(* Per-class argument registers expected by the convention, in order. *)
let expected_args (m : Machine.t) args =
  let next = Hashtbl.create 2 in
  List.map
    (fun a ->
      let cls = if Reg.is_phys a then Reg.phys_cls a else Reg.Int_class in
      let i = try Hashtbl.find next cls with Not_found -> 0 in
      Hashtbl.replace next cls (i + 1);
      if i < m.Machine.n_arg_regs then Some (Machine.arg_reg m cls i) else None)
    args

let func (m : Machine.t) (fn : Cfg.func) =
  let out = ref [] in
  let emit d = out := d :: !out in
  let diag ?block ?index ?instr ?reg ?severity reason fmt =
    Format.kasprintf
      (fun message ->
        Diagnostic.v ?block ?index ?instr ?reg ?severity ~func:fn.Cfg.name
          reason message)
      fmt
  in
  List.iter
    (fun (b : Cfg.block) ->
      Array.iteri
        (fun index (i : Instr.t) ->
          let at ?reg ?severity reason fmt =
            diag ~block:b.Cfg.label ~index ~instr:i.Instr.id ?reg ?severity
              reason fmt
          in
          match i.Instr.kind with
          | Instr.Load_pair { dst_lo; dst_hi; _ } ->
              if not (Machine.pair_ok m dst_lo dst_hi) then
                emit
                  (at ~reg:dst_hi Diagnostic.Bad_pair
                     "paired load names %s and %s, rejected by the %s rule"
                     (Reg.to_string dst_lo) (Reg.to_string dst_hi)
                     (match m.Machine.pair_rule with
                     | Machine.Parity -> "parity"
                     | Machine.Consecutive -> "consecutive"))
          | Instr.Call { dst; args; _ } ->
              List.iter2
                (fun a expected ->
                  match expected with
                  | Some e when not (Reg.equal a e) ->
                      emit
                        (at ~reg:a Diagnostic.Bad_calling_convention
                           "argument passed in %s instead of %s"
                           (Reg.to_string a) (Reg.to_string e))
                  | Some _ -> ()
                  | None ->
                      emit
                        (at ~reg:a Diagnostic.Bad_calling_convention
                           "call passes more than %d arguments of a class"
                           m.Machine.n_arg_regs))
                args (expected_args m args);
              Option.iter
                (fun d ->
                  if Reg.is_phys d then
                    let e = Machine.ret_reg m (Reg.phys_cls d) in
                    if not (Reg.equal d e) then
                      emit
                        (at ~reg:d Diagnostic.Bad_calling_convention
                           "call result lands in %s instead of %s"
                           (Reg.to_string d) (Reg.to_string e)))
                dst
          | Instr.Ret (Some r) ->
              if Reg.is_phys r then
                let e = Machine.ret_reg m (Reg.phys_cls r) in
                if not (Reg.equal r e) then
                  emit
                    (at ~reg:r Diagnostic.Bad_calling_convention
                       "return value in %s instead of %s" (Reg.to_string r)
                       (Reg.to_string e))
          | Instr.Limited { dst; _ } ->
              if Reg.is_phys dst && not (Machine.in_limited_set m dst) then
                emit
                  (at ~reg:dst ~severity:Diagnostic.Warning
                     Diagnostic.Limited_miss
                     "limited-use destination %s is outside the limited set \
                      (costs a fixup)"
                     (Reg.to_string dst))
          | _ -> ())
        b.Cfg.instrs)
    fn.Cfg.blocks;
  check_slots fn emit;
  List.rev !out
