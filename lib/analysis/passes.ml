(* The built-in passes.  Each [run] is pure analysis: inspect one
   function, return diagnostics, rewrite nothing. *)

(* ---- lint wrappers -------------------------------------------------- *)

let lint_ssa =
  Pass.v ~name:"lint-ssa" ~phase:Pass.Ssa
    ~doc:"structural well-formedness under SSA form" (fun _ctx fn ->
      Lint.func Lint.Ssa fn)

let lint_prepared =
  Pass.v ~name:"lint-prepared" ~phase:Pass.Prepared
    ~doc:"structural well-formedness of lowered allocator input"
    (fun _ctx fn -> Lint.func Lint.Prepared fn)

(* ---- use-before-def ------------------------------------------------- *)

let use_before_def =
  Pass.v ~name:"use-before-def" ~phase:Pass.Prepared
    ~doc:"virtual register used where no definition reaches" (fun ctx fn ->
      let reach = Lazy.force ctx.Pass.reaching in
      let out = ref [] in
      List.iter
        (fun (b : Cfg.block) ->
          let index = ref (-1) in
          Reaching.iter_block_forward_bits reach b
            ~f:(fun ~reaching ~site:_ (i : Instr.t) ->
              incr index;
              match i.Instr.kind with
              | Instr.Phi _ ->
                  (* Phi sources are per-edge values; reaching facts at
                     the block head do not describe them. *)
                  ()
              | kind ->
                  List.iter
                    (fun r ->
                      if Reg.is_virtual r then
                        let reached =
                          List.exists
                            (fun s -> Regbits.Set.mem reaching s)
                            (Reaching.sites_of_reg reach r)
                        in
                        if not reached then
                          out :=
                            Diagnostic.v ~block:b.Cfg.label ~index:!index
                              ~instr:i.Instr.id ~reg:r ~func:fn.Cfg.name
                              Diagnostic.Undefined_value
                              (Printf.sprintf
                                 "%s is used here but no definition reaches"
                                 (Reg.to_string r))
                            :: !out)
                    (Instr.uses kind)))
        fn.Cfg.blocks;
      List.rev !out)

(* ---- dead-store ----------------------------------------------------- *)

(* Kinds whose only effect is writing their destination; a dead
   definition of one of these is removable code.  Calls, stores, spill
   traffic and terminators stay out. *)
let pure_def (k : Instr.kind) =
  match k with
  | Instr.Move _ | Instr.Const _ | Instr.Unop _ | Instr.Binop _ | Instr.Cmp _
  | Instr.Load _ | Instr.Limited _ ->
      true
  | _ -> false

let dead_store =
  Pass.v ~name:"dead-store" ~phase:Pass.Prepared
    ~doc:"side-effect-free definition whose value is never observed"
    (fun ctx fn ->
      let live = Lazy.force ctx.Pass.live in
      let cpt = Liveness.compact live in
      let out = ref [] in
      List.iter
        (fun (b : Cfg.block) ->
          let index = ref (Array.length b.Cfg.instrs) in
          Liveness.iter_block_backward_bits live b
            ~f:(fun ~live_out (i : Instr.t) ->
              decr index;
              if pure_def i.Instr.kind then
                List.iter
                  (fun d ->
                    if Reg.is_virtual d then
                      let dead =
                        match Regbits.find cpt d with
                        | Some di -> not (Regbits.Set.mem live_out di)
                        | None -> true
                      in
                      if dead then
                        out :=
                          Diagnostic.v ~block:b.Cfg.label ~index:!index
                            ~instr:i.Instr.id ~reg:d
                            ~severity:Diagnostic.Warning ~func:fn.Cfg.name
                            Diagnostic.Dead_code
                            (Printf.sprintf
                               "%s is defined here but never used"
                               (Reg.to_string d))
                          :: !out)
                  (Instr.defs i.Instr.kind)))
        fn.Cfg.blocks;
      List.rev !out)

(* ---- unreachable-block ---------------------------------------------- *)

let unreachable_block =
  Pass.v ~name:"unreachable-block" ~phase:Pass.Prepared
    ~doc:"basic block unreachable from the function entry" (fun _ctx fn ->
      let reachable = Hashtbl.create 64 in
      List.iter
        (fun l -> Hashtbl.replace reachable l ())
        (Cfg.reverse_postorder fn);
      List.filter_map
        (fun (b : Cfg.block) ->
          if Hashtbl.mem reachable b.Cfg.label then None
          else
            Some
              (Diagnostic.v ~block:b.Cfg.label ~severity:Diagnostic.Warning
                 ~func:fn.Cfg.name Diagnostic.Dead_code
                 (Printf.sprintf "block L%d is unreachable from the entry"
                    b.Cfg.label)))
        fn.Cfg.blocks)

(* ---- ssa-pressure --------------------------------------------------- *)

let ssa_pressure =
  Pass.v ~name:"ssa-pressure" ~phase:Pass.Ssa
    ~doc:"MAXLIVE vs. K: is greedy chordal coloring guaranteed?"
    (fun ctx fn ->
      let k = ctx.Pass.machine.Machine.k in
      let ml = Maxlive.compute ~live:(Lazy.force ctx.Pass.live) fn in
      if Maxlive.certified ~k ml then []
      else
        [
          Diagnostic.v ~severity:Diagnostic.Warning ~func:fn.Cfg.name
            Diagnostic.Pressure
            (Format.asprintf
               "%a exceeds k=%d: greedy chordal coloring is not \
                guaranteed, spill-before-color must lower pressure"
               Maxlive.pp ml k);
        ])

(* ---- rpg-consistency ------------------------------------------------ *)

let rpg_consistency =
  Pass.v ~name:"rpg-consistency" ~phase:Pass.Prepared
    ~doc:"preference graph vs. interference graph consistency"
    (fun ctx fn ->
      let m = ctx.Pass.machine in
      let a = Lazy.force ctx.Pass.analysis in
      let graph = a.Alloc_common.graph in
      let str = Strength.of_analysis a in
      let rpg = Rpg.build ~cpt:(Igraph.compact graph) m fn str in
      (* instruction id -> position, for pinpointing edge sites *)
      let loc = Hashtbl.create 64 in
      List.iter
        (fun (b : Cfg.block) ->
          Array.iteri
            (fun index (i : Instr.t) ->
              Hashtbl.replace loc i.Instr.id (b.Cfg.label, index))
            b.Cfg.instrs)
        fn.Cfg.blocks;
      let out = ref [] in
      let emit ?severity ~reg ~instr_id msg =
        let block, index =
          match instr_id with
          | Some id -> (
              match Hashtbl.find_opt loc id with
              | Some bi -> bi
              | None -> (-1, -1))
          | None -> (-1, -1)
        in
        out :=
          Diagnostic.v ~block ~index
            ~instr:(Option.value instr_id ~default:(-1))
            ~reg ?severity ~func:fn.Cfg.name Diagnostic.Bad_preference msg
          :: !out
      in
      let mirror_ok r t instr_id =
        List.exists
          (fun (p : Rpg.pref) ->
            match p.Rpg.target with
            | Rpg.Coalesce back -> Reg.equal back r && p.Rpg.instr_id = instr_id
            | _ -> false)
          (Rpg.prefs rpg t)
      in
      Reg.Set.iter
        (fun r ->
          List.iter
            (fun (p : Rpg.pref) ->
              let instr_id = p.Rpg.instr_id in
              match p.Rpg.target with
              | Rpg.Coalesce t ->
                  if Igraph.interferes graph r t then
                    emit ~severity:Diagnostic.Warning ~reg:r ~instr_id
                      (Printf.sprintf
                         "copy between interfering live ranges %s and %s: \
                          this preference can never be honored"
                         (Reg.to_string r) (Reg.to_string t));
                  if Reg.is_virtual t && not (mirror_ok r t instr_id) then
                    emit ~reg:r ~instr_id
                      (Printf.sprintf
                         "coalesce edge %s -> %s has no mirror edge"
                         (Reg.to_string r) (Reg.to_string t))
              | Rpg.Memory ->
                  if Rpg.strength p <= 0 then
                    emit ~reg:r ~instr_id
                      (Printf.sprintf
                         "memory preference of %s has non-positive strength"
                         (Reg.to_string r))
              | Rpg.Seq_plus _ | Rpg.Seq_minus _ | Rpg.Kind | Rpg.In_limited ->
                  ())
            (Rpg.prefs rpg r))
        (Cfg.all_vregs fn);
      List.rev !out)

(* ---- verify --------------------------------------------------------- *)

let verify =
  Pass.v ~name:"verify" ~phase:Pass.Machine
    ~doc:"the allocation verifier on the finalized code (Verify.result)"
    (fun ctx fn ->
      match ctx.Pass.result with
      | Some res -> Verify.result ctx.Pass.machine res ~final:fn
      | None -> invalid_arg "verify: a Machine pass needs the allocator result")

(* ---- the pass list -------------------------------------------------- *)

let all =
  [
    lint_ssa;
    ssa_pressure;
    lint_prepared;
    use_before_def;
    dead_store;
    unreachable_block;
    rpg_consistency;
    verify;
  ]
