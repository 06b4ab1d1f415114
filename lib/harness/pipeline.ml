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

let all_algos =
  [
    chaitin_base;
    briggs_aggressive;
    optimistic;
    iterated;
    pdgc_coalescing_only;
    pdgc_full;
    aggressive_volatility;
    priority_based;
  ]

let () = List.iter Allocator.register all_algos

(* Every prepare stage (SSA round-trip, convention lowering, paired-load
   scheduling) is per-function, so preparing a whole program is exactly
   the per-function composition mapped over it.  The allocation daemon
   leans on this: it prepares request functions one at a time inside
   pool jobs and still matches [prepare] bit-for-bit. *)
let prepare_func m f =
  Pair_schedule.func (Lower.func m (Ssa_destruct.run (Ssa_construct.run f)))

let prepare m (p : Cfg.program) =
  { p with Cfg.funcs = List.map (prepare_func m) p.Cfg.funcs }

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

let allocate_program ?jobs (algo : Allocator.t) m (p : Cfg.program) =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Engine.default_jobs ()
  in
  (* One job per function: allocate and finalize, all scratch state
     owned by the job (the Allocator domain-safety contract).  Results
     come back in original function order, so the parallel path is
     bit-for-bit the sequential one. *)
  let pairs =
    Engine.map ~jobs
      (fun f ->
        let res = Allocator.exec algo m f in
        (res, Finalize.apply m res))
      p.Cfg.funcs
  in
  let results = List.map fst pairs in
  let finals = List.map snd pairs in
  List.iter
    (fun t ->
      match Diagnostic.errors (Lint.func (Lint.Machine m) t.Finalize.func) with
      | [] -> ()
      | d :: _ ->
          raise
            (Alloc_common.Failed
               (Format.asprintf "%s: %a" algo.Allocator.name Diagnostic.pp d)))
    finals;
  let program = { p with Cfg.funcs = List.map (fun t -> t.Finalize.func) finals } in
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
