(* The built-in allocators, as registry values.  Registering here (and
   not in each allocator module) keeps the registration order — which
   [Allocator.all] exposes and the figure tables follow — the paper's
   series order, independent of library link order. *)

let chaitin_base = Chaitin.allocator
let briggs_aggressive = Briggs.allocator
let optimistic = Park_moon.allocator
let iterated = Iterated.allocator
let pdgc_coalescing_only = Pdgc.allocator_coalescing_only
let pdgc_full = Pdgc.allocator_full
let aggressive_volatility = Lueh_gross.allocator
let priority_based = Priority_based.allocator

let algos =
  [
    chaitin_base;
    briggs_aggressive;
    optimistic;
    iterated;
    pdgc_coalescing_only;
    pdgc_full;
    aggressive_volatility;
  ]

(* Outside [algos]: priority-based coloring omits Chow's live-range
   splitting, so it is exercised only at moderate pressure (ablation,
   CLI) rather than in the generic low-k stress tests. *)
let all_algos = algos @ [ priority_based ]
let () = List.iter Allocator.register all_algos

(* Phase contracts: run every pass registered for a phase over one
   function; error-severity diagnostics abort the run the same way
   [~verify] failures do.  Warnings (pressure, dead code) pass. *)
let check_phase ~machine ?result ~what phase fn =
  let ctx = Pass.ctx ~machine ?result fn in
  let diags =
    List.concat_map
      (fun (p : Pass.t) -> p.Pass.run ctx fn)
      (Passes.for_phase phase)
  in
  match Diagnostic.errors diags with
  | [] -> ()
  | errors ->
      raise
        (Alloc_common.Failed
           (Format.asprintf "%s: %s phase contract violated:@.%a" what
              (Pass.phase_label phase) Verify.report errors))

(* Every prepare stage (SSA round-trip, convention lowering, paired-load
   scheduling) is per-function, so preparing a whole program is exactly
   the per-function composition mapped over it.  The allocation daemon
   leans on this: it prepares request functions one at a time inside
   pool jobs and still matches [prepare] bit-for-bit. *)
let prepare_func ?(check_phases = false) m f =
  let ssa = Ssa_construct.run f in
  if check_phases then check_phase ~machine:m ~what:"prepare" Pass.Ssa ssa;
  let prepared = Pair_schedule.func (Lower.func m (Ssa_destruct.run ssa)) in
  if check_phases then
    check_phase ~machine:m ~what:"prepare" Pass.Prepared prepared;
  prepared

let prepare ?check_phases m (p : Cfg.program) =
  { p with Cfg.funcs = List.map (prepare_func ?check_phases m) p.Cfg.funcs }

type allocated = {
  machine : Machine.t;
  program : Cfg.program;
  results : Alloc_common.result list;
  finals : Finalize.t list;
  moves_eliminated : int;
  moves_kept : int;
  spill_instrs : int;
  rounds_max : int;
}

let verify_allocated (a : allocated) =
  List.concat_map
    (fun (res, t) -> Verify.result a.machine res ~final:t.Finalize.func)
    (List.combine a.results a.finals)

let allocate_program ?(verify = false) ?(check_phases = false) ?jobs
    (algo : Allocator.t) m (p : Cfg.program) =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Engine.default_jobs ()
  in
  (* One job per function: allocate and finalize, all scratch state
     owned by the job (the Allocator domain-safety contract).  Results
     come back in original function order, so the parallel path is
     bit-for-bit the sequential one.  Phase contracts run inside the
     job too — each stage boundary (input, allocator result, machine
     code) is checked where the data already is. *)
  let pairs =
    Engine.map ~jobs
      (fun f ->
        let what = algo.Allocator.name in
        if check_phases then
          check_phase ~machine:m ~what Pass.Prepared f;
        let res = Allocator.exec algo m f in
        if check_phases then
          check_phase ~machine:m ~result:res ~what Pass.Allocated
            res.Alloc_common.func;
        let fin = Finalize.apply m res in
        if check_phases then
          check_phase ~machine:m ~what Pass.Machine fin.Finalize.func;
        (res, fin))
      p.Cfg.funcs
  in
  let results = List.map fst pairs in
  let finals = List.map snd pairs in
  let program = { p with Cfg.funcs = List.map (fun t -> t.Finalize.func) finals } in
  (match Check.machine_program m program with
  | Ok () -> ()
  | Error msg -> raise (Alloc_common.Failed (algo.Allocator.name ^ ": " ^ msg)));
  if verify then begin
    let diags =
      List.concat_map
        (fun (res, t) -> Verify.result m res ~final:t.Finalize.func)
        (List.combine results finals)
    in
    match Diagnostic.errors diags with
    | [] -> ()
    | errors ->
        raise
          (Alloc_common.Failed
             (Format.asprintf "%s: static verification failed:@.%a"
                algo.Allocator.name Diagnostic.report errors))
  end;
  {
    machine = m;
    program;
    results;
    finals;
    moves_eliminated =
      List.fold_left (fun acc t -> acc + t.Finalize.moves_eliminated) 0 finals;
    moves_kept =
      List.fold_left (fun acc t -> acc + t.Finalize.moves_kept) 0 finals;
    spill_instrs =
      List.fold_left
        (fun acc r -> acc + r.Alloc_common.spill_instrs)
        0 results;
    rounds_max =
      List.fold_left (fun acc r -> max acc r.Alloc_common.rounds) 0 results;
  }

let cycles a =
  (Interp.run ~machine:a.machine a.program).Interp.stats.Interp.cycles
