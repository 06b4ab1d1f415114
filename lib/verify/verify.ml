(* The allocator's spill-slot metadata against the spill traffic of its
   body: each spilled web books its own slot (two webs sharing one
   overwrite each other's values), every slot the body stores to or
   reloads from is booked, and a booking the body never touches is
   suspicious.  Finalization's save slots lie above the booked ones, so
   the rule reads the allocator's body, not the final code. *)
let slot_metadata (reference : Cfg.func) spill_slots =
  let func = reference.Cfg.name in
  let out = ref [] in
  let emit d = out := d :: !out in
  let booked = Hashtbl.create 16 in
  List.iter
    (fun (web, slot) ->
      match Hashtbl.find_opt booked slot with
      | Some other when not (Reg.equal other web) ->
          emit
            (Diagnostic.v ~func ~reg:web Diagnostic.Slot_mismatch
               (Printf.sprintf "webs %s and %s both spill to frame slot %d"
                  (Reg.to_string other) (Reg.to_string web) slot))
      | _ -> Hashtbl.replace booked slot web)
    spill_slots;
  let touched = Hashtbl.create 16 in
  List.iter
    (fun (b : Cfg.block) ->
      Array.iteri
        (fun index (i : Instr.t) ->
          match i.Instr.kind with
          | Instr.Spill { src = reg; slot }
          | Instr.Reload { dst = reg; slot } ->
              Hashtbl.replace touched slot ();
              if not (Hashtbl.mem booked slot) then
                emit
                  (Diagnostic.v ~block:b.Cfg.label ~index ~instr:i.Instr.id
                     ~reg ~func Diagnostic.Slot_mismatch
                     (Printf.sprintf
                        "frame slot %d has spill traffic but no booking"
                        slot))
          | _ -> ())
        b.Cfg.instrs)
    reference.Cfg.blocks;
  List.iter
    (fun (web, slot) ->
      if not (Hashtbl.mem touched slot) then
        emit
          (Diagnostic.v ~reg:web ~severity:Diagnostic.Warning ~func
             Diagnostic.Slot_mismatch
             (Printf.sprintf
                "frame slot %d is booked for %s but the body never touches it"
                slot (Reg.to_string web))))
    spill_slots;
  List.rev !out

let func m ~reference ~alloc ~spill_slots ~final =
  slot_metadata reference spill_slots
  @ Refmap.func m ~reference ~alloc ~final
  @ Audit.func m final
  @ Lint.func (Lint.Machine m) final

let result m (res : Alloc_common.result) ~final =
  func m ~reference:res.Alloc_common.func ~alloc:res.Alloc_common.alloc
    ~spill_slots:res.Alloc_common.spill_slots ~final

let report ppf ds = Diagnostic.report ppf (Diagnostic.normalize ds)
