type entry = {
  phase : Pass.phase;
  allocator : string option;
  pass : string;
  diags : Diagnostic.t list;
}

type t = { entries : entry list; skipped : (string * string) list }

let run ?jobs ?(passes = Passes.all) ?algos m (p : Cfg.program) =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Engine.default_jobs ()
  in
  (* Referencing [Pipeline] here also forces allocator registration. *)
  let algos = match algos with Some a -> a | None -> Pipeline.all_algos in
  let passes_for ph = List.filter (fun pa -> pa.Pass.phase = ph) passes in
  (* Per-function pass execution: one ctx so the lazy analyses are
     shared by every pass of the phase. *)
  let run_phase ?result ph fn =
    let ctx = Pass.ctx ~machine:m ?result fn in
    List.map
      (fun pa -> (pa.Pass.name, pa.Pass.run ctx fn))
      (passes_for ph)
  in
  (* Entries merge per-function results back in pass order; normalizing
     makes the grouping independent of gathering order. *)
  let collect phase allocator per_func =
    List.map
      (fun (pa : Pass.t) ->
        let diags =
          List.concat_map
            (fun rows ->
              match List.assoc_opt pa.Pass.name rows with
              | Some ds -> ds
              | None -> [])
            per_func
        in
        {
          phase;
          allocator;
          pass = pa.Pass.name;
          diags = Diagnostic.normalize diags;
        })
      (passes_for phase)
  in
  (* Mirror [Pipeline.prepare], pausing at the SSA snapshot. *)
  let ssa_rows =
    Engine.map ~jobs
      (fun f ->
        let ssa = Ssa_construct.run f in
        (run_phase Pass.Ssa ssa, Ssa_destruct.run ssa))
      p.Cfg.funcs
  in
  let funcs = List.map snd ssa_rows in
  let prepared = Pair_schedule.program (Lower.program m { p with Cfg.funcs }) in
  let prep_rows =
    Engine.map ~jobs
      (fun f -> run_phase Pass.Prepared f)
      prepared.Cfg.funcs
  in
  let base =
    collect Pass.Ssa None (List.map fst ssa_rows)
    @ collect Pass.Prepared None prep_rows
  in
  let skipped = ref [] in
  let per_algo =
    List.concat_map
      (fun (algo : Allocator.t) ->
        match
          Engine.map ~jobs
            (fun f ->
              let res = Allocator.exec algo m f in
              let allocated =
                run_phase ~result:res Pass.Allocated res.Alloc_common.func
              in
              let fin = Finalize.apply m res in
              (allocated, run_phase Pass.Machine fin.Finalize.func))
            prepared.Cfg.funcs
        with
        | rows ->
            collect Pass.Allocated (Some algo.Allocator.name)
              (List.map fst rows)
            @ collect Pass.Machine (Some algo.Allocator.name)
                (List.map snd rows)
        | exception Alloc_common.Failed msg ->
            skipped := (algo.Allocator.name, msg) :: !skipped;
            [])
      algos
  in
  { entries = base @ per_algo; skipped = List.rev !skipped }

let count sev t =
  List.fold_left
    (fun acc e ->
      acc
      + List.length
          (List.filter (fun d -> d.Diagnostic.severity = sev) e.diags))
    0 t.entries

let errors t = count Diagnostic.Error t
let warnings t = count Diagnostic.Warning t
