type phase = Ssa | Prepared | Machine of Machine.t

let func phase (fn : Cfg.func) =
  let out = ref [] in
  let emit d = out := d :: !out in
  let name = fn.Cfg.name in
  (match Cfg.validate fn with
  | Ok () -> ()
  | Error msg -> emit (Diagnostic.v ~func:name Diagnostic.Structure msg));
  (* Dangling references: jumps and the entry label are covered by
     [Cfg.validate]; check phi sources explicitly. *)
  let labels =
    List.fold_left
      (fun acc (b : Cfg.block) -> b.Cfg.label :: acc)
      [] fn.Cfg.blocks
  in
  let defs_seen = Reg.Tbl.create 64 in
  List.iter
    (fun (b : Cfg.block) ->
      Array.iteri
        (fun index (i : Instr.t) ->
          let at reason msg ?reg () =
            emit
              (Diagnostic.v ~block:b.Cfg.label ~index ~instr:i.Instr.id ?reg
                 ~func:name reason msg)
          in
          (match i.Instr.kind with
          | Instr.Phi { srcs; _ } ->
              if phase <> Ssa then
                at Diagnostic.Structure "phi outside SSA form" ();
              List.iter
                (fun (l, _) ->
                  if not (List.mem l labels) then
                    at Diagnostic.Structure
                      (Printf.sprintf "phi source references dead block L%d" l)
                      ())
                srcs
          | Instr.Param _ ->
              if phase <> Ssa && phase <> Prepared then
                at Diagnostic.Structure "parameter read after lowering" ()
          | Instr.Load_pair _ -> (
              match phase with
              | Machine _ -> ()
              | Ssa | Prepared ->
                  at Diagnostic.Structure "paired load before finalization" ())
          | _ -> ());
          (match phase with
          | Ssa ->
              List.iter
                (fun r ->
                  if Reg.is_virtual r then
                    if Reg.Tbl.mem defs_seen r then
                      at Diagnostic.Structure ~reg:r
                        (Printf.sprintf "%s defined more than once under SSA"
                           (Reg.to_string r))
                        ()
                    else Reg.Tbl.replace defs_seen r ())
                (Instr.defs i.Instr.kind)
          | Prepared -> ()
          | Machine m ->
              List.iter
                (fun r ->
                  if Reg.is_virtual r then
                    at Diagnostic.Not_allocatable ~reg:r
                      (Printf.sprintf "%s is still virtual in machine code"
                         (Reg.to_string r))
                      ()
                  else if not (Machine.is_allocatable m r) then
                    at Diagnostic.Not_allocatable ~reg:r
                      (Printf.sprintf "%s is outside the machine's %d registers"
                         (Reg.to_string r) m.Machine.k)
                      ())
                (Instr.defs i.Instr.kind @ Instr.uses i.Instr.kind)))
        b.Cfg.instrs)
    fn.Cfg.blocks;
  List.rev !out
