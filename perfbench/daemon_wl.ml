(* The daemon workload: a real pdgcd ([--jobs 1]) on a Unix socket,
   driven by two connections from one client thread with the binary
   codec, [pdgc] at k = 16.  Each connection is a closed loop (a
   compiler front end waiting for its reply), so two requests are in
   flight and the daemon can batch them.

   Requests name one single-function program each, drawn with a
   power-law skew (exponent [skew]) from a pool of [pool_size] programs,
   eight times the daemon's cache.  Hits read the cache; a miss
   allocates, adds and evicts — about 10% of requests, several times the
   1% beyond the p99, so the p50 reads hits and the p99 reads misses.
   With [skew] = 1.3 the hottest three programs of a round take 45% of
   its requests (53% at 1.4), so the p50 lies among more programs' hit
   latencies, and the cache is full by the end of the warm-up.

   A run is [rounds] rounds of set-up (generate and encode the pool,
   start the daemon, warm its cache to steady state) and a timed
   segment, so that set-up and measurement are both spread over the
   whole run.  The daemon is pinned to CPU 1 and the client to CPU 0;
   the reference that normalises the daemon's times (see Calib) runs in
   a worker pinned to the daemon's CPU. *)

let pool_size = 4096
let cache_capacity = 512
let skew = 1.3
let warmup_requests = 3000
let rounds = 5
let algo = Pipeline.pdgc_full
let machine = Machine.make ~k:16 ()

(* The in-process replay of a traced run serves the [replay_requests]
   that follow the warm-up. *)
let replay_requests = 10_000

(* Small functions like Loadgen's stream, at a register pressure at
   which pdgc spills on most of them, so that the spill metric is made
   of many events and steady from seed to seed. *)
let profile seed i =
  {
    Gen.default with
    Gen.name = Printf.sprintf "pool%d" i;
    seed = (seed * 1_000_003) + (i * 7919);
    n_funcs = 1;
    blocks = (2, 4);
    stmts = (4, 9);
    max_loop_depth = 1;
    call_density = 0.1;
    pressure = 14;
  }

let pool seed = Array.init pool_size (fun i -> Gen.generate (profile seed i))

let encode progs =
  Array.of_list
    (Loadgen.encode_requests ~machine ~algo:algo.Allocator.name (Array.to_list progs))

(* Cumulative power-law weights over pool ranks. *)
let cdf =
  let c = Array.make pool_size 0. and t = ref 0. in
  for i = 0 to pool_size - 1 do
    t := !t +. (1. /. (float_of_int (i + 1) ** skew));
    c.(i) <- !t
  done;
  c

(* The request stream of one round: pool indices, deterministic in
   (seed, round).  Each round ranks the pool in its own shuffled order,
   so the rounds' hottest programs differ and the latencies average over
   several of them rather than following the size of one. *)
let stream seed round =
  let st = Random.State.make [| seed; round |] in
  let program = Array.init pool_size Fun.id in
  for i = pool_size - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = program.(i) in
    program.(i) <- program.(j);
    program.(j) <- t
  done;
  let total = cdf.(pool_size - 1) in
  fun () ->
    let x = Random.State.float st total in
    let lo = ref 0 and hi = ref (pool_size - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < x then lo := mid + 1 else hi := mid
    done;
    program.(!lo)

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let server_stats sock =
  let c = Client.connect sock in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match Client.stats c with
      | Ok s -> s
      | Error e -> failwith ("stats request failed: " ^ e))

(* Round trips of a segment: (start, ns) per request, newest first, and
   (start, ns) per stretch of closed-loop driving. *)
type tally = {
  mutable lat : (int * int) list;
  mutable stretches : (int * int) list;
  mutable answered : int;
}

(* Keep two requests in flight over the two connections while [more ()]
   holds, then collect the outstanding replies.  [check] sees every
   reply with its pool index. *)
let drive conns payloads next ~more ~check tally =
  let q = Queue.create () in
  let send fd =
    let idx = next () in
    Queue.push (fd, Trace.now (), idx) q;
    Protocol.write_frame fd payloads.(idx)
  in
  let t0 = Trace.now () in
  Array.iter (fun fd -> if more () then send fd) conns;
  while not (Queue.is_empty q) do
    let fd, s, idx = Queue.pop q in
    (* Poll rather than block, so that the client's own wake-up is not
       part of the round trip. *)
    while Unix.select [ fd ] [] [] 0. = ([], [], []) do
      ()
    done;
    let reply = Protocol.read_frame fd in
    let t1 = Trace.now () in
    if more () then send fd;
    tally.lat <- (s, t1 - s) :: tally.lat;
    tally.answered <- tally.answered + 1;
    check idx (Protocol.decode_response reply)
  done;
  tally.stretches <- (t0, Trace.now () - t0) :: tally.stretches

let count_up n =
  let sent = ref 0 in
  fun () ->
    incr sent;
    !sent <= n

type round = {
  setup : int * int;  (** midpoint, ns *)
  rss_mb : float;
  cpu_ns : int;
  before : Protocol.server_stats;
  after : Protocol.server_stats;
}

(* One round: set-up, then [segment_ns] of timed requests, with the
   host-speed reference timed between stretches while nothing is in
   flight, and just before the set-up, which is normalised at its
   midpoint.  The daemon runs on CPU 1. *)
let round ~reference ~seed ~pdgcd ~sock ~segment_ns ~check tally r =
  Calib.measure reference;
  let t0 = Trace.now () in
  let payloads = encode (pool seed) in
  let pid =
    Unix.create_process "taskset"
      [|
        "taskset"; "-c"; "1"; pdgcd; "--socket"; sock; "--jobs"; "1"; "--cache-capacity";
        string_of_int cache_capacity;
      |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Client.connect sock in
         ignore (Client.shutdown c);
         Client.close c
       with _ -> Unix.kill pid Sys.sigkill);
      ignore (Unix.waitpid [] pid))
    (fun () ->
      Client.close (Client.connect_retry ~attempts:400 ~delay:0.025 sock);
      let conns = [| connect sock; connect sock |] in
      Fun.protect
        ~finally:(fun () -> Array.iter Unix.close conns)
        (fun () ->
          let next = stream seed r in
          let warm = { lat = []; stretches = []; answered = 0 } in
          drive conns payloads next ~more:(count_up warmup_requests) ~check warm;
          let ns = Trace.now () - t0 in
          let setup = (t0 + (ns / 2), ns) in
          let before = server_stats sock in
          let cpu0 = Proc.cpu_ns pid in
          let deadline = Trace.now () + segment_ns in
          while Trace.now () < deadline do
            Calib.measure reference;
            let stop = min deadline (Trace.now () + Calib.interval_ns) in
            drive conns payloads next ~more:(fun () -> Trace.now () < stop) ~check tally
          done;
          Calib.measure reference;
          let cpu_ns = Proc.cpu_ns pid - cpu0 in
          let after = server_stats sock in
          { setup; rss_mb = Proc.peak_rss_mb (string_of_int pid); cpu_ns; before; after }))

(* Judge one allocated program against its prepared, unallocated form
   and add it to [q]. *)
let judge q (p : Cfg.program) (reply : Protocol.func_reply) =
  let prepared = Pipeline.prepare machine { p with Cfg.funcs = List.map Cfg.clone p.Cfg.funcs } in
  let final = { p with Cfg.funcs = [ reply.Protocol.func ] } in
  Quality.add_counts q ~prepared ~final ~spill_instrs:reply.Protocol.spill_instrs
    ~moves_kept:reply.Protocol.moves_kept ~moves_eliminated:reply.Protocol.moves_eliminated;
  Quality.add_run q ~machine ~want:(Quality.interp prepared) final

(* The second computation of the quality record, in a child process
   through [Pipeline.allocate_program], which also runs the static
   verifier on those allocations. *)
let quality_child (progs : Cfg.program array) () =
  let q = Quality.create () and errors = ref [] in
  Array.iteri
    (fun i _ ->
      let p = progs.(i) in
      let a =
        Pipeline.allocate_program ~jobs:1 algo machine
          (Pipeline.prepare machine { p with Cfg.funcs = List.map Cfg.clone p.Cfg.funcs })
      in
      List.iter
        (fun d -> errors := Format.asprintf "pool program %d: %a" i Diagnostic.pp d :: !errors)
        (Diagnostic.errors (Pipeline.verify_allocated a));
      List.iter2
        (fun res fin ->
          ignore (judge q p (Protocol.decode_func_reply (Protocol.encode_func_reply res fin))))
        a.Pipeline.results a.Pipeline.finals)
    progs;
  (q, List.rev !errors)

(* The in-process replay of a traced run: fresh in-process servers
   warmed with the round's warm-up requests, then [replay_requests]
   requests, each a root span.  With [~paired:true] every request is
   first served by an untraced server, timed, so the overhead ratio
   compares neighbouring runs.  Returns the untraced time, its minor
   words and major collections, and the requests whose traced response
   differs from the untraced one. *)
let replay_pass (h : Hooks.t) ~paired ~seed payloads =
  let untraced = h.Hooks.new_server ~capacity:cache_capacity
  and traced = h.Hooks.new_server ~capacity:cache_capacity in
  let next = stream seed 0 in
  for _ = 1 to warmup_requests do
    let p = payloads.(next ()) in
    ignore (untraced ~traced:false p);
    ignore (traced ~traced:false p)
  done;
  let ns = ref 0 and minor = ref 0. and major = ref 0 and mismatches = ref 0 in
  for i = 0 to replay_requests - 1 do
    let payload = payloads.(next ()) in
    let want =
      if paired then begin
        let s0 = Gc.quick_stat () in
        let t0 = Trace.now () in
        let out = untraced ~traced:false payload in
        ns := !ns + (Trace.now () - t0);
        let s1 = Gc.quick_stat () in
        minor := !minor +. (s1.Gc.minor_words -. s0.Gc.minor_words);
        major := !major + (s1.Gc.major_collections - s0.Gc.major_collections);
        Some out
      end
      else None
    in
    Trace.set_fn i;
    Trace.enabled := true;
    let got = Trace.span Trace.Pipeline (fun () -> traced ~traced:true payload) in
    Trace.enabled := false;
    match want with
    | Some w when not (String.equal w got) -> incr mismatches
    | _ -> ()
  done;
  (!ns, !minor, !major, !mismatches)

let run ?hooks ~seed ~seconds ~trace ~pdgcd () =
  let sock = Printf.sprintf "%s/pdgcd-%d.sock" (Proc.work_dir ()) (Unix.getpid ()) in
  let failures = ref [] in
  let fail s = failures := s :: !failures in
  (* Every reply for a program must equal the first one; the first is
     checked against the one-shot pipeline after the run. *)
  let first = Array.make pool_size None and requested = Array.make pool_size 0 in
  let error_replies = ref 0 in
  let check idx = function
    | Protocol.Funcs [ b ] -> (
        requested.(idx) <- requested.(idx) + 1;
        match first.(idx) with
        | None -> first.(idx) <- Some b
        | Some b' ->
            if not (String.equal b b') then
              fail (Printf.sprintf "pool program %d: reply differs from an earlier reply" idx))
    | Protocol.Error_reply e ->
        incr error_replies;
        fail (Printf.sprintf "pool program %d: error reply: %s" idx e)
    | _ -> fail (Printf.sprintf "pool program %d: unexpected response" idx)
  in
  let n_rounds = if trace then 1 else rounds in
  let segment_ns = int_of_float (seconds *. 1e9 /. float_of_int (if trace then 2 else n_rounds)) in
  let tally = { lat = []; stretches = []; answered = 0 } in
  (* The daemon runs on CPU 1 and the client on CPU 0; the reference
     that normalises the daemon's times runs on the daemon's CPU. *)
  let reference, rs =
    Calib.with_pinned ~worker_cpu:"1" ~own_cpu:"0" (fun reference ->
        ( reference,
          List.init n_rounds (round ~reference ~seed ~pdgcd ~sock ~segment_ns ~check tally) ))
  in
  (* Output quality is judged on the whole pool, a set fixed by the
     seed, so the metrics do not depend on how many requests a run
     manages. *)
  let progs = pool seed in
  let join = Proc.spawn (quality_child progs) in
  let q = Quality.create () in
  for i = 0 to pool_size - 1 do
    match Loadgen.one_shot_blobs ~machine ~algo progs.(i) with
    | [ b ] -> (
        (match first.(i) with
        | Some got when not (String.equal got b) ->
            for _ = 1 to requested.(i) do
              fail (Printf.sprintf "pool program %d: reply differs from the one-shot pipeline" i)
            done
        | _ -> ());
        match judge q progs.(i) (Protocol.decode_func_reply b) with
        | Ok () -> ()
        | Error e -> fail (Printf.sprintf "pool program %d: %s" i e))
    | _ -> fail (Printf.sprintf "pool program %d: one-shot reply count" i)
    | exception e -> fail (Printf.sprintf "pool program %d: one-shot: %s" i (Printexc.to_string e))
  done;
  let verify_errors =
    match join () with
    | Error e ->
        fail ("quality process: " ^ e);
        []
    | Ok (q2, errors) ->
        if not (Quality.equal q q2) then
          fail "determinism: the second computation of the quality metrics differs";
        errors
  in
  let fi = float_of_int in
  let listing = List.map (fun e -> "verify error: " ^ e) verify_errors in
  let distinct = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 requested in
  let notes =
    [
      Report.m "latency_samples" "count" (fi tally.answered);
      Report.m "distinct_programs" "count" (fi distinct);
    ]
  in
  let scaled l = Array.of_list (List.map (fun (t, ns) -> Calib.scale reference t ns) l) in
  if not trace then begin
    let lat_ms = Array.map (fun ns -> ns /. 1e6) (scaled tally.lat) in

    let wall = Array.fold_left ( +. ) 0. (scaled tally.stretches) in
    let raw_wall = List.fold_left (fun acc (_, ns) -> acc + ns) 0 tally.stretches in
    let ref_ms, refs = Calib.summary reference in

    let metrics =
      [
        Report.m "setup_s" "s" (Stats.median (scaled (List.map (fun r -> r.setup) rs)) /. 1e9);
        Report.m "fns_per_s" "functions/s" (fi tally.answered /. (wall /. 1e9));
        Report.m "latency_p50_ms" "ms" (Stats.percentile lat_ms 0.5);
        Report.m "latency_p99_ms" "ms" (Stats.percentile lat_ms 0.99);
        Report.m "peak_rss_mb" "MiB" (Stats.median_list (List.map (fun r -> r.rss_mb) rs));
      ]
      @ List.map (fun (nm, u, v) -> Report.m nm u v) (Quality.metrics q)
    in
    {
      Report.attempted = tally.answered;
      failures = List.rev !failures;
      metrics;
      notes =
        notes
        @ [
            Report.m "verify.errors" "count" (fi (List.length verify_errors));
            Report.m "raw_fns_per_s" "functions/s" (fi tally.answered /. (fi raw_wall /. 1e9));
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
        let r = List.hd rs in
        let d f = fi (f r.after - f r.before) in
        let hits = d (fun s -> s.Protocol.cache.Cache.hits)
        and misses = d (fun s -> s.Protocol.cache.Cache.misses) in
        let allocated = d (fun s -> s.Protocol.funcs_allocated) in
        let answered = fi tally.answered in
        let cpu_per_fn = fi r.cpu_ns /. answered in
        let mean_lat = List.fold_left (fun acc (_, ns) -> acc +. fi ns) 0. tally.lat /. answered in
        (* The in-process replay, twice over the same requests: the
           exact counts must repeat. *)
        let payloads = encode progs in
        h.Hooks.reset_counts ();
        let untraced_ns, minor, major, mismatches = replay_pass h ~paired:true ~seed payloads in
        let c = h.Hooks.counts () in
        let traced_once = Trace.fn_total () in
        h.Hooks.reset_counts ();
        ignore (replay_pass h ~paired:false ~seed payloads);
        if h.Hooks.counts () <> c then
          fail "determinism: the traced replay's exact counts differ between passes";
        let nf = fi replay_requests in
        let traced_fns = 2. *. nf in
        let layers =
          List.filter_map
            (fun (l, ns) ->
              if l = Trace.Bench then None else Some (Report.m (Trace.name l) "ns" (fi ns /. traced_fns)))
            (Trace.self_times ())
        in
        let alloc_ns = Hashtbl.fold (fun _ ns acc -> acc + ns) (Trace.alloc_time_by_fn ()) 0 in
        let exec_rows =
          List.map
            (fun (a : Allocator.t) ->
              Report.m
                (Printf.sprintf "regalloc.exec.%s_ns" a.Allocator.name)
                "ns"
                (if a == algo then Stats.ratio (fi alloc_ns) (2. *. fi c.Hooks.allocations) else 0.))
            (Allocator.all ())
        in
        let metrics =
          layers @ exec_rows
          @ [
              Report.m "serve.daemon_cpu_ns" "ns" cpu_per_fn;
              Report.m "serve.wait_ns" "ns" (mean_lat -. cpu_per_fn);
              Report.m "serve.cache_hit_ratio" "ratio" (Stats.ratio hits (hits +. misses));
              Report.m "serve.evictions_per_kreq" "count/kreq"
                (1000. *. d (fun s -> s.Protocol.cache.Cache.evictions) /. answered);
              Report.m "serve.funcs_per_batch" "functions/batch"
                (Stats.ratio allocated (d (fun s -> s.Protocol.batches)));
              Report.m "serve.dedup_ratio" "ratio" (Stats.ratio allocated misses);
              Report.m "serve.error_replies" "count" (fi !error_replies);
              Report.m "gc.minor_words_per_fn" "words" (minor /. nf);
              Report.m "gc.major_collections_per_kfn" "count/kfn" (1000. *. fi major /. nf);
              Report.m "regalloc.rounds_per_fn" "rounds" (fi c.Hooks.rounds /. nf);
              Report.m "regalloc.spilled_ranges_per_fn" "ranges" (fi c.Hooks.spilled_ranges /. nf);
              Report.m "core.cpg_edges_per_fn" "edges" (fi c.Hooks.cpg_edges /. nf);
              Report.m "core.prefs_honored_ratio" "ratio"
                (Stats.ratio (fi c.Hooks.prefs_honored) (fi c.Hooks.prefs_offered));
              Report.m "verify.errors" "count" (fi (List.length verify_errors));
              Report.m "trace.fn_total_ns" "ns" (fi (Trace.fn_total ()) /. traced_fns);
              Report.m "trace.overhead_ratio" "ratio" (Stats.ratio (fi traced_once) (fi untraced_ns));
              Report.m "trace.replay_mismatches" "count" (fi mismatches);
            ]
        in
        {
          Report.attempted = tally.answered + (3 * replay_requests);
          failures = List.rev !failures;
          metrics;
          notes;
          listing;
        }
