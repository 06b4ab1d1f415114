(* Suite workloads: the benchmark is a compiler front end that hands
   the allocator one function at a time and waits for each reply (a
   closed loop: one client, one process, one request in flight).

   Inputs are seeded variants of each of the seven [Suite] profiles,
   the paper's SPECjvm98 stand-ins; one request is one function through
   clone, [Pipeline.prepare_func], [Allocator.exec] and
   [Finalize.apply].  The measurement is one pass over every request,
   sized so that it takes about [--seconds] on the development host:
   every request is distinct, which keeps the seed-to-seed spread of the
   metrics small for the time spent. *)

type spec = {
  algos : Allocator.t list;
  ks : int list;
  rotate : bool;
      (** each program is allocated once per register file, each of its
          functions by one allocator taken round-robin, instead of once
          per allocator *)
  seconds_per_variant : float;
      (** time one variant of every profile takes on the development
          host (2 cores, OCaml 5.1) *)
}

(* The paper's allocator over the register-file sizes of Figs. 9-11,
   every variant at every size. *)
let pdgc =
  { algos = [ Pipeline.pdgc_full ]; ks = [ 16; 24; 32 ]; rotate = false; seconds_per_variant = 1.25 }

(* Every other registered allocator, at the smallest register file.
   The allocators' costs are heavy-tailed in function size and
   correlated across allocators, so each function goes to one
   allocator, in rotation: for the same time, seven times as many
   distinct programs as running all seven on each, and every
   allocator's share of the tail is drawn from every program, which is
   what keeps the seed-to-seed spread of p99 low.  Functions follow the
   calling convention, so a program whose functions were allocated by
   different allocators still runs, and is judged, as a whole. *)
let baselines =
  {
    algos =
      List.filter (fun (a : Allocator.t) -> a != Pipeline.pdgc_full) (Allocator.all ());
    ks = [ 16 ];
    rotate = true;
    seconds_per_variant = 0.95;
  }

let variants spec ~seconds =
  max 1 (int_of_float (Float.round (seconds /. spec.seconds_per_variant)))

(* The set-up: the input IR of every variant. *)
let generate ~variants seed =
  (* seed 1's first variant of each profile is exactly [Suite.program] *)
  List.concat_map
    (fun name ->
      let p = Suite.profile name in
      List.init variants (fun j ->
          Gen.generate
            { p with Gen.seed = p.Gen.seed + (7919 * (((seed - 1) * variants) + j)) }))
    Suite.names
  |> Array.of_list

(* One program at one register file, with the allocator of each of its
   functions: its functions are allocated one request each and then
   judged as a whole program. *)
type group = { m : Machine.t; algos : Allocator.t array; prog : int }

let groups (spec : spec) ~variants (progs : Cfg.program array) =
  let n = List.length spec.algos and algos = Array.of_list spec.algos in
  List.concat_map
    (fun k ->
      let m = Machine.make ~k () in
      let funcs prog = List.length progs.(prog).Cfg.funcs in
      if spec.rotate then
        (* programs are numbered profile by profile, variants innermost *)
        List.init (Array.length progs) (fun prog ->
            let first = (prog / variants) + (prog mod variants) in
            { m; prog; algos = Array.init (funcs prog) (fun fn -> algos.((first + fn) mod n)) })
      else
        List.concat_map
          (fun a ->
            List.init (Array.length progs) (fun prog ->
                { m; prog; algos = Array.make (funcs prog) a }))
          spec.algos)
    spec.ks
  |> Array.of_list

(* One request: a function of a group.  Requests are numbered group by
   group, in function order. *)
type request = { g : int; fn : int }

let requests (progs : Cfg.program array) groups =
  Array.to_list groups
  |> List.mapi (fun gi g ->
         List.init (List.length progs.(g.prog).Cfg.funcs) (fun fn -> { g = gi; fn }))
  |> List.concat |> Array.of_list

(* The measured work of one request. *)
let compile (a : Allocator.t) m f =
  let pf = Pipeline.prepare_func m (Cfg.clone f) in
  let res = Allocator.exec a m pf in
  (res, Finalize.apply m res)

let group_name g =
  let a = g.algos.(0).Allocator.name in
  Printf.sprintf "%s k=%d program %d"
    (if Array.for_all (fun (b : Allocator.t) -> b.Allocator.name = a) g.algos then a else "mixed")
    g.m.Machine.k g.prog

let describe (progs : Cfg.program array) groups r =
  let g = groups.(r.g) in
  Printf.sprintf "k=%d program %d function %s (%s)" g.m.Machine.k g.prog
    (List.nth progs.(g.prog).Cfg.funcs r.fn).Cfg.name g.algos.(r.fn).Allocator.name

(* What one reference process reports: its failures (tagged with their
   group) and its peak memory.  It only compiles and encodes; reply blobs
   go to a file as they are made, so the process holds only the inputs
   and what one request needs. *)
type share = { failures : (int * string) list; rss_mb : float }

let reference_share progs groups ~mine ~file () =
  let oc = open_out_bin file in
  let failures = ref [] in
  Array.iteri
    (fun gi g ->
      if mine g then
        match
          List.mapi
            (fun fn f ->
              let res, fin = compile g.algos.(fn) g.m f in
              Protocol.encode_func_reply res fin)
            progs.(g.prog).Cfg.funcs
        with
        | exception e -> failures := (gi, Printexc.to_string e) :: !failures
        | blobs -> output_value oc ((gi, blobs) : int * string list))
    groups;
  close_out oc;
  { failures = List.rev !failures; rss_mb = Proc.peak_rss_mb "self" }

(* Every reference blob, computed by one child process per variant (the
   groups of its seven programs), two at a time, one per core.  Each is
   forked while this process holds only the inputs, so its peak memory
   is that of a compiler process holding them; the median over the
   processes keeps one unusually large function from setting the
   metric. *)
type reference = {
  blobs : string option array;  (** per request; [None] if its group failed *)
  ref_failures : string list;
  rss_mb : float;  (** the median peak of the processes *)
}

let tagged groups l =
  List.map (fun (gi, e) -> group_name groups.(gi) ^ ": " ^ e) (List.stable_sort compare l)

let reference_pass ~variants progs groups reqs =
  let first = Array.make (Array.length groups) 0 in
  Array.iteri (fun i r -> if r.fn = 0 then first.(r.g) <- i) reqs;
  let file j =
    Printf.sprintf "%s/reference-%d-%d.bin" (Proc.work_dir ()) (Unix.getpid ()) j
  in
  (* programs are numbered profile by profile, variants innermost *)
  let shares =
    Proc.run_jobs variants (fun j ->
        reference_share progs groups ~mine:(fun g -> g.prog mod variants = j) ~file:(file j))
  in
  let blobs = Array.make (Array.length reqs) None in
  let failures = ref [] and rss = ref [] and lost = ref [] in
  Array.iteri
    (fun j h ->
      (match h with
      | Error e -> lost := Printf.sprintf "reference process of variant %d: %s" j e :: !lost
      | Ok (h : share) ->
          failures := h.failures @ !failures;
          rss := h.rss_mb :: !rss);
      let ic = open_in_bin (file j) in
      (try
         while true do
           let gi, bs = (input_value ic : int * string list) in
           List.iteri (fun fn b -> blobs.(first.(gi) + fn) <- Some b) bs
         done
       with End_of_file -> ());
      close_in ic;
      Sys.remove (file j))
    shares;
  {
    blobs;
    ref_failures = List.rev !lost @ tagged groups !failures;
    rss_mb = (match !rss with [] -> 0. | l -> Stats.median_list l);
  }

let by_group groups reqs =
  let l = Array.make (Array.length groups) [] in
  for i = Array.length reqs - 1 downto 0 do
    l.(reqs.(i).g) <- i :: l.(reqs.(i).g)
  done;
  l

(* ---- the check pass ------------------------------------------------ *)

(* The prepared, unallocated program of a group. *)
let prepared_of (progs : Cfg.program array) g =
  let p = progs.(g.prog) in
  Pipeline.prepare g.m { p with Cfg.funcs = List.map Cfg.clone p.Cfg.funcs }

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Judge every group whose every request has a reference blob, one child
   process per program, two at a time.  A child allocates the program's
   groups a second time, in a process of its own, and fails every
   function whose output differs from its reference blob (the
   determinism check); runs [Pipeline.verify_allocated] on those
   allocations; takes the static quality counts from the reference
   blobs; and runs every allocated program and its unallocated form in
   the interpreter, failing every program that computes a different
   value.  A program's prepared form is the same at every register-file
   size whenever its digest says so; its unallocated run is then made
   once.  Returns the quality record, the failures and the verifier
   errors. *)
let check_pass progs groups reqs (blobs : string option array) =
  let idx = by_group groups reqs in
  let complete gi =
    match List.map (fun i -> Option.get blobs.(i)) idx.(gi) with
    | exception Invalid_argument _ -> None
    | bs -> Some bs
  in
  let job prog () =
    let q = Quality.create () and failures = ref [] and errors = ref [] in
    let fail gi e = failures := (gi, e) :: !failures in
    let want = Hashtbl.create 4 in
    Array.iteri
      (fun gi g ->
        if g.prog = prog then
          match complete gi with
          | None -> ()
          | Some bs -> (
              let p = progs.(prog) in
              match List.mapi (fun fn f -> compile g.algos.(fn) g.m f) p.Cfg.funcs with
              | exception e -> fail gi ("second computation: " ^ Printexc.to_string e)
              | outs ->
                  List.iteri
                    (fun fn ((res, fin), b) ->
                      if not (String.equal (Protocol.encode_func_reply res fin) b) then
                        fail gi
                          (Printf.sprintf
                             "determinism: function %d's second computation differs from its \
                              reference"
                             fn))
                    (List.combine outs bs);
                  let finals = List.map snd outs in
                  let allocated =
                    {
                      Pipeline.machine = g.m;
                      program =
                        { p with Cfg.funcs = List.map (fun (f : Finalize.t) -> f.Finalize.func) finals };
                      results = List.map fst outs;
                      finals;
                      moves_eliminated = 0;
                      moves_kept = 0;
                      spill_instrs = 0;
                      rounds_max = 0;
                    }
                  in
                  List.iter
                    (fun d -> errors := (gi, Format.asprintf "%a" Diagnostic.pp d) :: !errors)
                    (Diagnostic.errors (Pipeline.verify_allocated allocated));
                  let replies = List.map Protocol.decode_func_reply bs in
                  let final = { p with Cfg.funcs = List.map (fun r -> r.Protocol.func) replies } in
                  let prepared = prepared_of progs g in
                  Quality.add_counts q ~prepared ~final
                    ~spill_instrs:(sum (fun r -> r.Protocol.spill_instrs) replies)
                    ~moves_kept:(sum (fun r -> r.Protocol.moves_kept) replies)
                    ~moves_eliminated:(sum (fun r -> r.Protocol.moves_eliminated) replies);
                  let key = String.concat "" (List.map Cfg.body_digest prepared.Cfg.funcs) in
                  let w =
                    match Hashtbl.find_opt want key with
                    | Some w -> w
                    | None ->
                        let w = Quality.interp prepared in
                        Hashtbl.replace want key w;
                        w
                  in
                  match Quality.add_run q ~machine:g.m ~want:w final with
                  | Ok () -> ()
                  | Error e -> fail gi e))
      groups;
    (q, !failures, !errors)
  in
  let q = Quality.create () and failures = ref [] and errors = ref [] and lost = ref [] in
  Array.iteri
    (fun prog r ->
      match r with
      | Ok (q', f, e) ->
          Quality.merge q q';
          failures := f @ !failures;
          errors := e @ !errors
      | Error e -> lost := Printf.sprintf "check process of program %d: %s" prog e :: !lost)
    (Proc.run_jobs (Array.length progs) job);
  (q, List.rev !lost @ tagged groups !failures, tagged groups !errors)

(* ---- the measurement ----------------------------------------------- *)

(* One timed request: its start, the time, the minor words and major
   collections of [compile]; its reply blob, made outside the timed
   window, must equal its reference. *)
let timed_request progs groups (fns : Cfg.func array array) (r : reference) ~fail i rq =
  let g = groups.(rq.g) in
  let f = fns.(g.prog).(rq.fn) in
  let s0 = Gc.quick_stat () in
  let t0 = Trace.now () in
  let out = try Ok (compile g.algos.(rq.fn) g.m f) with e -> Error e in
  let ns = Trace.now () - t0 in
  let s1 = Gc.quick_stat () in
  (match (out, r.blobs.(i)) with
  | Error e, _ -> fail (describe progs groups rq ^ ": " ^ Printexc.to_string e)
  | Ok _, None -> fail (describe progs groups rq ^ ": no reference output")
  | Ok (res, fin), Some want ->
      if not (String.equal (Protocol.encode_func_reply res fin) want) then
        fail (describe progs groups rq ^ ": output differs from its reference"));
  (t0, ns, s1.Gc.minor_words -. s0.Gc.minor_words, s1.Gc.major_collections - s0.Gc.major_collections)

let fns_of (progs : Cfg.program array) =
  Array.map (fun (p : Cfg.program) -> Array.of_list p.Cfg.funcs) progs

let run ?hooks spec ~seed ~seconds ~trace =
  let variants =
    let v = variants spec ~seconds in
    if trace then max 1 (v / 3) else v
  in
  (* Set-up samples are made by a worker forked before the inputs exist,
     so that the measuring process never holds or collects the set-up's
     garbage, and never forks while it measures (after a fork, its first
     write to each page of its heap faults).  Traced runs leave it
     idle. *)
  let setup_worker =
    Proc.worker (fun () ->
        let t0 = Trace.now () in
        ignore (Sys.opaque_identity (generate ~variants seed));
        (t0, Trace.now () - t0))
  in
  let progs = generate ~variants seed in
  let groups = groups spec ~variants progs in
  let reqs = requests progs groups in
  let n = Array.length reqs in
  let r = reference_pass ~variants progs groups reqs in
  let failures = ref (List.rev r.ref_failures) in
  let fail s = failures := s :: !failures in
  let attempted = ref 0 in
  let fi = float_of_int in
  (* After the measurement: the timed outputs were checked byte-equal to
     the reference outputs, request by request; the check pass computes
     them a third time, verifies them and judges their quality. *)
  let checked () =
    let q, bad, errors = check_pass progs groups reqs r.blobs in
    List.iter fail bad;
    (q, errors, List.map (fun e -> "verify error: " ^ e) errors)
  in
  let sizes = [ Report.m "variants" "count" (fi variants); Report.m "requests" "count" (fi n) ] in
  if not trace then begin
    (* Set-up samples and host-speed references, spread over the whole
       measurement; this process and both workers on CPU 0. *)
    let window = int_of_float (seconds *. 1e9) in
    let setup = ref [] and last_setup = ref 0 in
    let reference, pass =
      Calib.with_pinned ~worker_cpu:"0" ~own_cpu:"0" (fun reference ->
          Proc.pin setup_worker.Proc.pid "0";
          let between () =
            Calib.tick reference;
            if Trace.now () - !last_setup >= window / 24 then begin
              setup := setup_worker.Proc.ask () :: !setup;
              last_setup := Trace.now ()
            end
          in
          let fns = fns_of progs in
          let pass =
            Array.mapi
              (fun i rq ->
                between ();
                timed_request progs groups fns r ~fail i rq)
              reqs
          in
          Calib.measure reference;
          (reference, pass))
    in
    attempted := n;
    let q, errors, listing = checked () in
    let times = Array.map (fun (_, ns, _, _) -> ns) pass in
    let norm = Array.map (fun (t, ns, _, _) -> Calib.scale reference t ns) pass in
    let ms = Array.map (fun ns -> ns /. 1e6) norm in
    let total = Array.fold_left ( +. ) 0. norm in
    let raw_total = fi (Array.fold_left ( + ) 0 times) in
    let ref_ms, refs = Calib.summary reference in
    let metrics =
      [
        Report.m "setup_s" "s"
          (Stats.median_list (List.map (fun (t, ns) -> Calib.scale reference t ns) !setup) /. 1e9);
        Report.m "fns_per_s" "functions/s" (fi n /. (total /. 1e9));
        Report.m "latency_p50_ms" "ms" (Stats.percentile ms 0.5);
        Report.m "latency_p99_ms" "ms" (Stats.percentile ms 0.99);
        Report.m "peak_rss_mb" "MiB" r.rss_mb;
      ]
      @ List.map (fun (nm, u, v) -> Report.m nm u v) (Quality.metrics q)
    in
    {
      Report.attempted = !attempted;
      failures = List.rev !failures;
      metrics;
      notes =
        sizes
        @ [
            Report.m "verify.errors" "count" (fi (List.length errors));
            Report.m "latency_samples" "count" (fi n);
            Report.m "setup_samples" "count" (fi (List.length !setup));
            Report.m "raw_fns_per_s" "functions/s" (fi n /. (raw_total /. 1e9));
            Report.m "host_reference_ms" "ms" ref_ms;
            Report.m "host_references" "count" (fi refs);
          ];
      listing;
    }
  end
  else
    match hooks with
    | None -> failwith "this build has no traced path"
    | Some (h : Hooks.t) ->
      (* Each request untraced, then its traced replay, so that the
         overhead ratio compares neighbouring runs; then a second traced
         pass: the exact counts must repeat. *)
      let fns = fns_of progs in
      let untraced = Array.make n (0, 0, 0., 0) and mismatches = ref 0 in
      let traced_pass ~first =
        h.Hooks.reset_counts ();
        Array.iteri
          (fun i rq ->
            if first then untraced.(i) <- timed_request progs groups fns r ~fail i rq;
            let g = groups.(rq.g) in
            Trace.set_fn i;
            Trace.enabled := true;
            let out =
              try
                Ok
                  (Trace.span Trace.Pipeline (fun () ->
                       let res, fin =
                         h.Hooks.compile g.algos.(rq.fn) g.m (Cfg.clone fns.(g.prog).(rq.fn))
                       in
                       Trace.span Trace.Bench (fun () -> Protocol.encode_func_reply res fin)))
              with e -> Error (Printexc.to_string e)
            in
            Trace.enabled := false;
            match (out, r.blobs.(i)) with
            | Error e, _ -> fail (describe progs groups rq ^ " (traced): " ^ e)
            | Ok b, Some want -> if first && not (String.equal b want) then incr mismatches
            | Ok _, None -> ())
          reqs;
        h.Hooks.counts ()
      in
      let c = traced_pass ~first:true in
      let traced_once = Trace.fn_total () in
      if traced_pass ~first:false <> c then
        fail "determinism: the traced replay's exact counts differ between passes";
      let _, errors, listing = checked () in
      let untraced_ns = Array.fold_left (fun acc (_, ns, _, _) -> acc + ns) 0 untraced in
      let minor_words = Array.fold_left (fun acc (_, _, w, _) -> acc +. w) 0. untraced in
      let major = Array.fold_left (fun acc (_, _, _, c) -> acc + c) 0 untraced in
      attempted := 3 * n;
      let traced_fns = fi (2 * n) in
      let per_fn ns = fi ns /. traced_fns in
      let layers =
        List.filter_map
          (fun (l, ns) ->
            if l = Trace.Bench then None else Some (Report.m (Trace.name l) "ns" (per_fn ns)))
          (Trace.self_times ())
      in
      let by_fn = Trace.alloc_time_by_fn () in
      let exec_rows =
        List.map
          (fun (a : Allocator.t) ->
            let tot = ref 0 and cnt = ref 0 in
            Array.iteri
              (fun i rq ->
                if groups.(rq.g).algos.(rq.fn) == a then begin
                  cnt := !cnt + 2;
                  tot := !tot + Option.value ~default:0 (Hashtbl.find_opt by_fn i)
                end)
              reqs;
            Report.m
              (Printf.sprintf "regalloc.exec.%s_ns" a.Allocator.name)
              "ns"
              (Stats.ratio (fi !tot) (fi !cnt)))
          (Allocator.all ())
      in
      let nf = fi n in
      let serve_rows =
        [
          Report.m "serve.daemon_cpu_ns" "ns" 0.;
          Report.m "serve.wait_ns" "ns" 0.;
          Report.m "serve.cache_hit_ratio" "ratio" 0.;
          Report.m "serve.evictions_per_kreq" "count/kreq" 0.;
          Report.m "serve.funcs_per_batch" "functions/batch" 0.;
          Report.m "serve.dedup_ratio" "ratio" 0.;
          Report.m "serve.error_replies" "count" 0.;
        ]
      in
      let metrics =
        layers @ exec_rows @ serve_rows
        @ [
            Report.m "gc.minor_words_per_fn" "words" (minor_words /. nf);
            Report.m "gc.major_collections_per_kfn" "count/kfn"
              (1000. *. fi major /. nf);
            Report.m "regalloc.rounds_per_fn" "rounds" (fi c.Hooks.rounds /. nf);
            Report.m "regalloc.spilled_ranges_per_fn" "ranges" (fi c.Hooks.spilled_ranges /. nf);
            Report.m "core.cpg_edges_per_fn" "edges" (fi c.Hooks.cpg_edges /. nf);
            Report.m "core.prefs_honored_ratio" "ratio"
              (Stats.ratio (fi c.Hooks.prefs_honored) (fi c.Hooks.prefs_offered));
            Report.m "verify.errors" "count" (fi (List.length errors));
            Report.m "trace.fn_total_ns" "ns" (per_fn (Trace.fn_total ()));
            Report.m "trace.overhead_ratio" "ratio" (Stats.ratio (fi traced_once) (fi untraced_ns));
            Report.m "trace.replay_mismatches" "count" (fi !mismatches);
          ]
      in
      { Report.attempted = !attempted; failures = List.rev !failures; metrics; notes = sizes; listing }
