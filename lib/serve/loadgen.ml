type pass = {
  functions : int;
  requests : int;
  elapsed_s : float;
  fns_per_s : float;
  p50_ms : float;
  p99_ms : float;
}

(* ---- program streams --------------------------------------------------- *)

(* Modest functions — big enough that allocation dominates the service
   path (a few blocks, real register pressure), small enough that one
   request stays cheap.  Distinct seeds per program keep the stream
   content-diverse so a cold pass misses the cache. *)
let stream_profile ~seed i n_funcs =
  {
    Gen.default with
    Gen.name = Printf.sprintf "load%d" i;
    seed = seed + (i * 7919);
    n_funcs;
    blocks = (2, 4);
    stmts = (4, 9);
    max_loop_depth = 1;
    call_density = 0.1;
    pressure = 8;
  }

let programs ~seed ~funcs_per_program ~n_funcs =
  let rec go acc total i =
    if total >= n_funcs then List.rev acc
    else
      let p = Gen.generate (stream_profile ~seed i funcs_per_program) in
      go (p :: acc) (total + List.length p.Cfg.funcs) (i + 1)
  in
  go [] 0 0

(* ---- replay ------------------------------------------------------------ *)

type acc = {
  mutable lats : float list;  (** per-request seconds *)
  mutable funcs : int;
  mutable error : string option;
}

let drive ~socket reqs acc =
  match Client.connect_retry socket with
  | exception Unix.Unix_error (e, _, _) ->
      acc.error <- Some ("connect: " ^ Unix.error_message e)
  | c ->
      List.iter
        (fun payload ->
          if acc.error = None then begin
            let t0 = Unix.gettimeofday () in
            match Client.alloc_encoded c payload with
            | Ok blobs ->
                acc.lats <- (Unix.gettimeofday () -. t0) :: acc.lats;
                acc.funcs <- acc.funcs + List.length blobs
            | Error msg -> acc.error <- Some msg
            | exception (Protocol.Closed | Unix.Unix_error _) ->
                acc.error <- Some "connection lost"
          end)
        reqs;
      Client.close c

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let deal n xs =
  let buckets = Array.make n [] in
  List.iteri (fun i x -> buckets.(i mod n) <- x :: buckets.(i mod n)) xs;
  Array.to_list (Array.map List.rev buckets)

(* Serialize every request up front: the timed window measures the
   daemon (framing, decode, cache, allocation), not the client's own
   codec speed — and cold/warm replay the exact same bytes.  Callers
   that drop the [Cfg] programs after encoding also shrink the
   client's live heap to flat strings, so client-side GC marking does
   not pollute large replays. *)
let encode_requests ~machine ~algo progs =
  List.map
    (fun p ->
      Protocol.encode_request
        (Protocol.Alloc { machine; algo; program = Protocol.Binary p }))
    progs

let replay_encoded ~socket ?(clients = 1) reqs =
  let clients = max 1 (min clients (max 1 (List.length reqs))) in
  let accs =
    Array.init clients (fun _ -> { lats = []; funcs = 0; error = None })
  in
  let t0 = Unix.gettimeofday () in
  (if clients = 1 then drive ~socket reqs accs.(0)
   else
     deal clients reqs
     |> List.mapi (fun i sub ->
            Thread.create (fun () -> drive ~socket sub accs.(i)) ())
     |> List.iter Thread.join);
  let elapsed_s = Unix.gettimeofday () -. t0 in
  match Array.find_opt (fun a -> a.error <> None) accs with
  | Some { error = Some msg; _ } -> Error msg
  | _ ->
      let lats =
        Array.of_list (Array.fold_left (fun l a -> a.lats @ l) [] accs)
      in
      Array.sort compare lats;
      let functions = Array.fold_left (fun n a -> n + a.funcs) 0 accs in
      Ok
        {
          functions;
          requests = Array.length lats;
          elapsed_s;
          fns_per_s =
            (if elapsed_s > 0. then float_of_int functions /. elapsed_s else 0.);
          p50_ms = 1000. *. percentile lats 0.50;
          p99_ms = 1000. *. percentile lats 0.99;
        }

let replay ~socket ~machine ~algo ?clients progs =
  replay_encoded ~socket ?clients (encode_requests ~machine ~algo progs)

let replay_blobs ~socket ~machine ~algo progs =
  match Client.connect_retry socket with
  | exception Unix.Unix_error (e, _, _) ->
      Error ("connect: " ^ Unix.error_message e)
  | c ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
            match Client.alloc c ~machine ~algo (Protocol.Binary p) with
            | Ok blobs -> go (blobs :: acc) rest
            | Error _ as e -> e
            | exception (Protocol.Closed | Unix.Unix_error _) ->
                Error "connection lost")
      in
      let r = go [] progs in
      Client.close c;
      (match r with Ok bs -> Ok bs | Error msg -> Error msg)

(* ---- daemon lifecycle -------------------------------------------------- *)

let with_daemon ?(jobs = 4) ?(cache_capacity = 0) ?exe ~socket f =
  (if Sys.file_exists socket then
     try Unix.unlink socket with Unix.Unix_error _ -> ());
  (* The child must be forked before this process spawns any domain
     (callers keep daemon phases first); the daemon builds its own pool
     after the fork. *)
  let pid = Unix.fork () in
  if pid = 0 then begin
    match exe with
    | Some exe ->
        let argv =
          [|
            exe; "--socket"; socket; "--jobs"; string_of_int jobs;
            "--cache-capacity"; string_of_int cache_capacity;
          |]
        in
        (try Unix.execv exe argv with _ -> ());
        Unix._exit 127
    | None ->
        (try
           Server.run { Server.socket_path = socket; jobs; cache_capacity }
         with _ -> Unix._exit 1);
        Unix._exit 0
  end
  else
    Fun.protect
      ~finally:(fun () ->
        (try
           let c = Client.connect socket in
           ignore (Client.shutdown c);
           Client.close c
         with _ -> ());
        let rec reap tries =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ when tries > 0 ->
              Unix.sleepf 0.05;
              reap (tries - 1)
          | 0, _ ->
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid)
          | _ -> ()
          | exception Unix.Unix_error _ -> ()
        in
        reap 200)
      f

(* ---- the @serve-smoke selftest ----------------------------------------- *)

let one_shot_blobs ~machine ~algo p =
  (* Prepare mutates the shared fresh-name counters of its input
     functions; clone so the caller's program still encodes (and
     digests) exactly as before the one-shot run. *)
  let p = { p with Cfg.funcs = List.map Cfg.clone p.Cfg.funcs } in
  let a =
    Pipeline.allocate_program ~jobs:1 algo machine (Pipeline.prepare machine p)
  in
  List.map2 Protocol.encode_func_reply a.Pipeline.results a.Pipeline.finals

let temp_socket tag =
  let path = Filename.temp_file ("pdgcd-" ^ tag) ".sock" in
  Sys.remove path;
  path

let mini_src =
  "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } \
   fn main() { return fib(10); }"

(* Send [payloads] as consecutive frames in one [write] on a fresh
   connection, then read one reply per frame. *)
let exchange_raw ~socket payloads =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let buf = Buffer.create 1024 in
      List.iter
        (fun p ->
          Buffer.add_int32_le buf (Int32.of_int (String.length p));
          Buffer.add_string buf p)
        payloads;
      let frames = Buffer.to_bytes buf in
      ignore (Unix.write fd frames 0 (Bytes.length frames));
      List.map
        (fun _ -> Protocol.decode_response (Protocol.read_frame fd))
        payloads)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let selftest ?exe () =
  let ( let* ) = Result.bind in
  let check name ok = if ok then Ok () else Error ("serve selftest: " ^ name) in
  let machine = Machine.middle_pressure in
  let algo = Pipeline.pdgc_full in
  let algo_name = algo.Allocator.name in
  let progs = programs ~seed:42 ~funcs_per_program:3 ~n_funcs:12 in
  let total_funcs =
    List.fold_left (fun n p -> n + List.length p.Cfg.funcs) 0 progs
  in
  let expected = List.map (one_shot_blobs ~machine ~algo) progs in
  let mini_prog = Mini_compile.compile_source mini_src in
  let mini_expected = one_shot_blobs ~machine ~algo mini_prog in
  let sock4 = temp_socket "j4" in
  let* () =
    with_daemon ?exe ~jobs:4 ~socket:sock4 (fun () ->
        let* cold = replay_blobs ~socket:sock4 ~machine ~algo:algo_name progs in
        let* () = check "daemon matches one-shot pipeline" (cold = expected) in
        let* warm = replay_blobs ~socket:sock4 ~machine ~algo:algo_name progs in
        let* () = check "warm replay byte-identical to cold" (warm = cold) in
        (* concurrent clients ride the cross-request batcher *)
        let* conc =
          replay ~socket:sock4 ~machine ~algo:algo_name ~clients:4 progs
        in
        let* () =
          check "concurrent clients served every function"
            (conc.functions = total_funcs)
        in
        let c = Client.connect_retry sock4 in
        let r =
          let* st = Client.stats c in
          let* () =
            check "warm replay served from cache"
              (st.Protocol.cache.Cache.hits >= total_funcs)
          in
          let* () =
            check "cold replay went through the pipeline"
              (st.Protocol.funcs_allocated >= 1
              && st.Protocol.cache.Cache.misses >= 1)
          in
          let* tb = Client.alloc c ~machine ~algo:algo_name (Protocol.Text mini_src) in
          let* bb =
            Client.alloc c ~machine ~algo:algo_name (Protocol.Binary mini_prog)
          in
          let* () = check "text and binary wire formats agree" (tb = bb) in
          let* () = check "text request matches one-shot" (tb = mini_expected) in
          let* () =
            match
              Client.alloc c ~machine ~algo:"no-such-algo"
                (Protocol.Binary mini_prog)
            with
            | Error msg ->
                check "unknown allocator lists valid names"
                  (contains msg "valid" && contains msg algo_name)
            | Ok _ -> Error "serve selftest: unknown allocator accepted"
          in
          let* () =
            match
              Client.alloc c ~machine ~algo:algo_name (Protocol.Text "fn (")
            with
            | Error msg -> check "malformed minilang rejected" (contains msg "minilang")
            | Ok _ -> Error "serve selftest: malformed minilang accepted"
          in
          let* fr =
            Client.alloc_funcs c ~machine ~algo:algo_name
              (Protocol.Binary mini_prog)
          in
          check "reply blobs decode"
            (List.length fr = List.length mini_prog.Cfg.funcs)
        in
        Client.close c;
        r)
  in
  (* a jobs=1 daemon answers byte-identically: pool size is invisible *)
  let sock1 = temp_socket "j1" in
  let* () =
    with_daemon ?exe ~jobs:1 ~socket:sock1 (fun () ->
        let* one = replay_blobs ~socket:sock1 ~machine ~algo:algo_name progs in
        check "jobs=1 matches jobs=4" (one = expected))
  in
  (* the request-bytes index: a repeated request is answered, and
     counted, exactly as decoding it again would be *)
  let encode program =
    Protocol.encode_request
      (Protocol.Alloc { machine; algo = algo_name; program })
  in
  let req_a, req_b =
    match programs ~seed:7 ~funcs_per_program:1 ~n_funcs:2 with
    | a :: b :: _ -> (encode (Protocol.Binary a), encode (Protocol.Binary b))
    | _ -> assert false
  in
  let req_3 = encode (Protocol.Binary (List.hd progs)) in
  let req_text = encode (Protocol.Text mini_src) in
  let with_client ?cache_capacity tag f =
    let sock = temp_socket tag in
    with_daemon ?exe ~jobs:1 ?cache_capacity ~socket:sock (fun () ->
        let c = Client.connect_retry sock in
        let r = f sock c in
        Client.close c;
        r)
  in
  let* () =
    with_client "index" (fun sock c ->
        let* s0 = Client.stats c in
        let* a1 = Client.alloc_encoded c req_a in
        let* a2 = Client.alloc_encoded c req_a in
        let* a3 = Client.alloc_encoded c req_a in
        let* s1 = Client.stats c in
        let* () = check "repeated request byte-identical" (a2 = a1 && a3 = a1) in
        let delta f = f s1 - f s0 in
        let* () =
          check "repeated request counted as if decoded"
            (delta (fun s -> s.Protocol.cache.Cache.hits) = 2
            && delta (fun s -> s.Protocol.cache.Cache.misses) = 1
            && delta (fun s -> s.Protocol.funcs_allocated) = 1)
        in
        let twice name req =
          let* x = Client.alloc_encoded c req in
          let* y = Client.alloc_encoded c req in
          check name (List.length x > 0 && y = x)
        in
        let* () = twice "repeated 3-function request byte-identical" req_3 in
        let* () = twice "repeated text request byte-identical" req_text in
        (* a decode error is answered after the good frame before it *)
        match exchange_raw ~socket:sock [ req_a; "\001garbage" ] with
        | [ Protocol.Funcs blobs; Protocol.Error_reply _ ] ->
            check "pipelined reply matches" (blobs = a1)
        | _ -> Error "serve selftest: pipelined replies out of frame order")
  in
  (* once A's function is evicted, A is decoded and allocated again *)
  let evicted ~cache_capacity between ~misses =
    with_client ~cache_capacity "evict" (fun _ c ->
        let* a1 = Client.alloc_encoded c req_a in
        let* _ = Client.alloc_encoded c between in
        let* a2 = Client.alloc_encoded c req_a in
        let* st = Client.stats c in
        check
          (Printf.sprintf "capacity %d: evicted request answered again"
             cache_capacity)
          (a2 = a1 && st.Protocol.cache.Cache.misses = misses))
  in
  let* () = evicted ~cache_capacity:1 req_b ~misses:3 in
  (* the index still maps A to its evicted key: a stale entry *)
  let* () = evicted ~cache_capacity:2 req_3 ~misses:5 in
  (* shutdown is acknowledged *)
  with_client "down" (fun _ c ->
      match Client.shutdown c with
      | Ok () -> Ok ()
      | Error m -> Error ("serve selftest: shutdown: " ^ m))
