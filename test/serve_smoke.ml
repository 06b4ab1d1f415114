(* The @serve-smoke checks: [serve_smoke PDGCD_EXE] starts daemons from
   the pdgcd binary on temp sockets and checks:
   - daemon responses equal the one-shot pipeline's blobs, for the
     binary and the text wire formats;
   - a warm replay is byte-identical to the cold one and is served from
     the cache;
   - five connections whose request frames are all written before any
     reply is read, four of them while the daemon allocates the first
     one's, each get the one-shot bytes;
   - four connections opened and written together, with no stats round
     trip first, while the daemon is blocked writing the replies to a
     flood of stats requests, get the one-shot bytes from one batch;
   - jobs=1 and jobs=4 daemons agree;
   - unknown allocators, malformed programs and a machine with k = 0
     get error replies naming the problem, and the next request on that
     connection still gets the one-shot bytes;
   - a function Lower rejects fails its request and no other in a
     mixed batch, or fails a 3-function request as a whole, caching
     only its good functions;
   - a repeated request (binary, 3-function, text) gets byte-identical
     replies and the stats counters a decode would give, also after its
     function was evicted;
   - a good frame and a malformed one sent in one write are answered in
     frame order; a good frame followed by a bad length prefix in one
     write gets its reply, then the [bad frame length] error, then EOF;
   - shutdown is acknowledged.

   Prints "serve selftest: ok" and exits 0 when every check passes;
   otherwise names the first failed check on stderr and exits 1 (2 on
   bad usage).  Throughput and latency are measured only by perfbench's
   daemon-zipf workload. *)

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
      r

(* ---- daemon lifecycle -------------------------------------------------- *)

(* Start the pdgcd binary [exe] on [socket], run [f], then shut the
   daemon down and reap it. *)
let with_daemon ~jobs ?(cache_capacity = 0) ~exe ~socket f =
  (if Sys.file_exists socket then
     try Unix.unlink socket with Unix.Unix_error _ -> ());
  (* [create_process] would look a bare name up in PATH. *)
  let exe =
    if Filename.is_implicit exe then
      Filename.concat Filename.current_dir_name exe
    else exe
  in
  let pid =
    Unix.create_process exe
      [|
        exe; "--socket"; socket; "--jobs"; string_of_int jobs;
        "--cache-capacity"; string_of_int cache_capacity;
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
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

(* ---- the checks -------------------------------------------------------- *)

let temp_socket tag =
  let path = Filename.temp_file ("pdgcd-" ^ tag) ".sock" in
  Sys.remove path;
  path

let mini_src =
  "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } \
   fn main() { return fib(10); }"

(* Raw frame bytes: each payload behind its length prefix. *)
let frames payloads =
  let buf = Buffer.create 1024 in
  List.iter
    (fun p ->
      Buffer.add_int32_le buf (Int32.of_int (String.length p));
      Buffer.add_string buf p)
    payloads;
  Buffer.contents buf

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let write_raw fd bytes =
  ignore (Unix.write_substring fd bytes 0 (String.length bytes))

(* Open a connection and send [bytes] on it in one [write].  A read on
   it that waits 5 s fails, so a reply that never comes fails a check
   instead of hanging it. *)
let send_raw ~socket bytes =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    Unix.connect fd (Unix.ADDR_UNIX socket);
    write_raw fd bytes
  with
  | () -> fd
  | exception e ->
      close_fd fd;
      raise e

(* Read up to [replies] replies, fewer if the daemon closes the
   connection first or a read times out.  With [eof], read once more to
   see whether it then closes (a timeout counts as open).  Returns the
   replies and whether the connection was seen closed. *)
let read_replies ?(eof = false) fd replies =
  let rec read n =
    if n = 0 && not eof then ([], false)
    else
      match Protocol.read_frame fd with
      | frame when n > 0 ->
          let rest, closed = read (n - 1) in
          (Protocol.decode_response frame :: rest, closed)
      | _ | (exception Unix.Unix_error _) -> ([], false)
      | exception Protocol.Closed -> ([], true)
  in
  read replies

let exchange_raw ?eof ~socket ~replies bytes =
  let fd = send_raw ~socket bytes in
  Fun.protect
    ~finally:(fun () -> close_fd fd)
    (fun () -> read_replies ?eof fd replies)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let ( let* ) = Result.bind
let check name ok = if ok then Ok () else Error ("serve selftest: " ^ name)

(* Connections opened and written together, with no stats round trip
   first, while the daemon is held up writing the replies to a flood of
   stats requests that are read only afterwards.  They wait in the
   listen backlog together, so the daemon accepts them at one wakeup
   and allocates their requests in one batch.  [conns] pairs each
   connection's request payload with its one-shot reply blobs; [c], an
   accepted client, reads the batch counter. *)
let opened_together ~socket c conns =
  let batches () =
    Result.map (fun st -> st.Protocol.batches) (Client.stats c)
  in
  (* Each reply is its own write, and a Unix socket's send buffer
     (208 KiB by default on Linux) holds a few hundred of them: the daemon
     blocks long before the last. *)
  let flood_frames = 12_000 in
  let stats = Protocol.encode_request Protocol.Stats in
  let* b0 = batches () in
  let flood =
    send_raw ~socket (frames (List.init flood_frames (fun _ -> stats)))
  in
  let answered, replies =
    Fun.protect
      ~finally:(fun () -> close_fd flood)
      (fun () ->
        match Unix.select [ flood ] [] [] 5.0 with
        | [], _, _ -> (0, [])
        | _ ->
            let fds =
              List.map (fun (p, _) -> send_raw ~socket (frames [ p ])) conns
            in
            Fun.protect
              ~finally:(fun () -> List.iter close_fd fds)
              (fun () ->
                let answered = fst (read_replies flood flood_frames) in
                ( List.length answered,
                  List.map (fun fd -> fst (read_replies fd 1)) fds )))
  in
  let* b1 = batches () in
  let* () = check "stats flood answered" (answered = flood_frames) in
  let* () =
    check "connections opened together match one-shot pipeline"
      (replies = List.map (fun (_, blobs) -> [ Protocol.Funcs blobs ]) conns)
  in
  check "connections opened together allocated in one batch" (b1 - b0 = 1)

let selftest ~exe () =
  let machine = Machine.middle_pressure in
  let algo = Pipeline.pdgc_full in
  let algo_name = algo.Allocator.name in
  let progs = programs ~seed:42 ~funcs_per_program:3 ~n_funcs:12 in
  let total_funcs =
    List.fold_left (fun n p -> n + List.length p.Cfg.funcs) 0 progs
  in
  let expected = List.map (Loadgen.one_shot_blobs ~machine ~algo) progs in
  (* Request payloads with their one-shot reply blobs: one 12-function
     request for a connection to keep the daemon busy, then eight
     1-function requests dealt over four more connections. *)
  let with_expected ps =
    List.combine
      (Loadgen.encode_requests ~machine ~algo:algo_name ps)
      (List.map (Loadgen.one_shot_blobs ~machine ~algo) ps)
  in
  let conns =
    let small =
      with_expected (programs ~seed:43 ~funcs_per_program:1 ~n_funcs:8)
    in
    with_expected (programs ~seed:44 ~funcs_per_program:12 ~n_funcs:12)
    :: List.init 4 (fun i -> List.filteri (fun j _ -> j mod 4 = i) small)
  in
  let mini_prog = Mini_compile.compile_source mini_src in
  let mini_expected = Loadgen.one_shot_blobs ~machine ~algo mini_prog in
  (* A daemon on a fresh socket, and a client connected to it. *)
  let with_client ?(jobs = 1) ?cache_capacity tag f =
    let sock = temp_socket tag in
    with_daemon ~exe ~jobs ?cache_capacity ~socket:sock (fun () ->
        let c = Client.connect_retry sock in
        let r = f sock c in
        Client.close c;
        r)
  in
  let* () =
    with_client ~jobs:4 "j4" (fun sock4 c ->
        let* cold = replay_blobs ~socket:sock4 ~machine ~algo:algo_name progs in
        let* () = check "daemon matches one-shot pipeline" (cold = expected) in
        let* warm = replay_blobs ~socket:sock4 ~machine ~algo:algo_name progs in
        let* () = check "warm replay byte-identical to cold" (warm = cold) in
        (* Concurrent connections, each accepted (a stats reply) before
           any request is sent.  Every request frame is written before
           any reply is read; the last four connections' frames arrive
           while the daemon allocates the first's, so it reads them at
           one wakeup and allocates their cold functions as one batch. *)
        let stats = frames [ Protocol.encode_request Protocol.Stats ] in
        let fds =
          List.map
            (fun _ ->
              let fd = send_raw ~socket:sock4 stats in
              ignore (read_replies fd 1);
              fd)
            conns
        in
        let replies =
          Fun.protect
            ~finally:(fun () -> List.iter close_fd fds)
            (fun () ->
              List.iter2
                (fun fd c -> write_raw fd (frames (List.map fst c)))
                fds conns;
              List.map2
                (fun fd c -> fst (read_replies fd (List.length c)))
                fds conns)
        in
        let* () =
          check "concurrent clients match one-shot pipeline"
            (replies
            = List.map (List.map (fun (_, blobs) -> Protocol.Funcs blobs)) conns)
        in
        let* () =
          opened_together ~socket:sock4 c
            (with_expected
               (programs ~seed:45 ~funcs_per_program:1 ~n_funcs:4))
        in
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
        (* A machine [Machine.make] rejects is answered in band, and
           the connection still serves the next request. *)
        let* () =
          match
            Client.alloc c
              ~machine:{ machine with Machine.k = 0 }
              ~algo:algo_name (Protocol.Binary mini_prog)
          with
          | Error msg -> check "k = 0 machine rejected" (contains msg "k = 0")
          | Ok _ -> Error "serve selftest: k = 0 machine accepted"
        in
        let* after =
          Client.alloc c ~machine ~algo:algo_name (Protocol.Binary mini_prog)
        in
        let* () =
          check "request after a rejected machine matches one-shot"
            (after = mini_expected)
        in
        let* fr =
          Client.alloc_funcs c ~machine ~algo:algo_name
            (Protocol.Binary mini_prog)
        in
        check "reply blobs decode"
          (List.length fr = List.length mini_prog.Cfg.funcs))
  in
  (* a jobs=1 daemon answers byte-identically: pool size is invisible *)
  let* () =
    with_client "j1" (fun sock1 _ ->
        let* one = replay_blobs ~socket:sock1 ~machine ~algo:algo_name progs in
        check "jobs=1 matches jobs=4" (one = expected))
  in
  (* the request-bytes index: a repeated request is answered, and
     counted, exactly as decoding it again would be *)
  let encode ?(machine = machine) program =
    Protocol.encode_request
      (Protocol.Alloc { machine; algo = algo_name; program })
  in
  let prog_a, prog_b =
    match programs ~seed:7 ~funcs_per_program:1 ~n_funcs:2 with
    | a :: b :: _ -> (a, b)
    | _ -> assert false
  in
  let req_a = encode (Protocol.Binary prog_a) in
  let req_b = encode (Protocol.Binary prog_b) in
  let req_3 = encode (Protocol.Binary (List.hd progs)) in
  let req_text = encode (Protocol.Text mini_src) in
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
        let* () =
          match
            exchange_raw ~socket:sock ~replies:2
              (frames [ req_a; "\001garbage" ])
          with
          | [ Protocol.Funcs blobs; Protocol.Error_reply _ ], _ ->
              check "pipelined reply matches" (blobs = a1)
          | _ -> Error "serve selftest: pipelined replies out of frame order"
        in
        (* so is a bad length prefix, which then closes the connection *)
        let bad_length = Bytes.create 4 in
        Bytes.set_int32_le bad_length 0 (-1l);
        match
          exchange_raw ~eof:true ~socket:sock ~replies:2
            (frames [ req_a ] ^ Bytes.to_string bad_length)
        with
        | [ Protocol.Funcs blobs; Protocol.Error_reply msg ], true ->
            check "bad frame length answered after the frame before it"
              (blobs = a1 && contains msg "bad frame length")
        | _ -> Error "serve selftest: bad frame length not answered in order")
  in
  (* A failing function fails only its own request.  At k = 4, with one
     integer argument register, Lower rejects [caller]'s two-argument
     call.  A request for it is written in one batch with good ones, and
     its connection's next request is still served; a 3-function request
     holding it fails as a whole, and only its good functions are
     cached. *)
  let k4 = Machine.make ~k:4 () in
  let src =
    Mini_compile.compile_source
      "fn pair(a, b) { return a - b; } fn caller(x) { return pair(x, 1); } \
       fn inc(a) { return a + 1; } fn main() { return inc(2); }"
  in
  let only names =
    let keep f = List.mem f.Cfg.name names in
    { src with Cfg.funcs = List.filter keep src.Cfg.funcs }
  in
  let k4_request names = encode ~machine:k4 (Protocol.Binary (only names)) in
  let good = Loadgen.one_shot_blobs ~machine:k4 ~algo (only [ "inc"; "main" ]) in
  let req_good = k4_request [ "inc"; "main" ] in
  let req_bad3 = k4_request [ "inc"; "caller"; "main" ] in
  let* () =
    with_client "mixed" (fun sock c ->
        let* s0 = Client.stats c in
        let fd =
          send_raw ~socket:sock
            (frames [ req_a; k4_request [ "caller" ]; req_good ])
        in
        let replies =
          Fun.protect
            ~finally:(fun () -> close_fd fd)
            (fun () ->
              let batch = fst (read_replies fd 3) in
              write_raw fd (frames [ req_good ]);
              batch @ fst (read_replies fd 1))
        in
        let* s1 = Client.stats c in
        let* () =
          check "mixed batch: only the failing request fails"
            (match replies with
            | [ Protocol.Funcs a; Protocol.Error_reply msg; g; g' ] ->
                a = Loadgen.one_shot_blobs ~machine ~algo prog_a
                && contains msg "Lower"
                && g = Protocol.Funcs good && g' = g
                && s1.Protocol.batches - s0.Protocol.batches = 1
            | _ -> false)
        in
        let counts () =
          Result.map
            (fun s -> Protocol.(s.cache.Cache.hits, s.cache.Cache.misses))
            (Client.stats c)
        in
        let r1 = Client.alloc_encoded c req_bad3 in
        let* n1 = counts () in
        let r2 = Client.alloc_encoded c req_bad3 in
        let* n2 = counts () in
        let g = Client.alloc_encoded c req_good in
        let* n3 = counts () in
        let delta (h, m) (h', m') = (h' - h, m' - m) in
        check "failed 3-function request: only its good functions cached"
          ((match r1 with Error msg -> contains msg "Lower" | Ok _ -> false)
          && r2 = r1
          && delta n1 n2 = (2, 1)
          && g = Ok good
          && delta n2 n3 = (2, 0)))
  in
  (* once A's function is evicted, A is decoded and allocated again.  A
     full cache refuses a function's first miss and admits its second,
     so the request in between is sent twice. *)
  let evicted ~cache_capacity between ~refused ~misses =
    with_client ~cache_capacity "evict" (fun _ c ->
        let* a1 = Client.alloc_encoded c req_a in
        let* _ = Client.alloc_encoded c between in
        let* s1 = Client.stats c in
        let* () =
          check
            (Printf.sprintf "capacity %d: first misses refused" cache_capacity)
            (s1.Protocol.cache.Cache.refused = refused)
        in
        let* _ = Client.alloc_encoded c between in
        let* a2 = Client.alloc_encoded c req_a in
        let* st = Client.stats c in
        check
          (Printf.sprintf "capacity %d: evicted request answered again"
             cache_capacity)
          (a2 = a1 && st.Protocol.cache.Cache.misses = misses))
  in
  let* () = evicted ~cache_capacity:1 req_b ~refused:1 ~misses:4 in
  (* the index still maps A to its evicted key: a stale entry *)
  let* () = evicted ~cache_capacity:2 req_3 ~refused:2 ~misses:7 in
  (* shutdown is acknowledged *)
  with_client "down" (fun _ c ->
      match Client.shutdown c with
      | Ok () -> Ok ()
      | Error m -> Error ("serve selftest: shutdown: " ^ m))

let () =
  match Sys.argv with
  | [| _; exe |] -> (
      match selftest ~exe () with
      | Ok () -> print_endline "serve selftest: ok"
      | Error msg ->
          prerr_endline msg;
          exit 1
      | exception e ->
          prerr_endline ("serve selftest: " ^ Printexc.to_string e);
          exit 1)
  | _ ->
      prerr_endline "usage: serve_smoke PDGCD_EXE";
      exit 2
