(* Single-threaded select loop.  Every wakeup drains the readable
   connections, then dispatches the round's allocation work as one
   Engine.Pool batch — requests that arrive together share worker
   domains.  Responses are written blocking; the daemon's only
   long-running work happens inside the pool batch.  A request whose
   exact bytes were answered before skips decode and digest: an index
   keyed on the payload's MD5 yields its function cache keys. *)

type config = { socket_path : string; jobs : int; cache_capacity : int }

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;  (* bytes received, not yet framed *)
}

(* A function awaiting allocation: the cache key plus everything the
   pipeline needs.  Jobs are deduplicated per batch by key, so two
   requests for the same function body cost one pipeline run. *)
type job = {
  key : string;
  machine : Machine.t;
  algo : Allocator.t;
  func : Cfg.func;
}

type slot = Hit of string | Miss of string  (* cached blob | job key *)

type pending =
  | Alloc_pending of {
      conn : conn;
      digest : string;  (* of the request payload *)
      keys : string array;  (* function cache keys, in function order *)
      slots : slot list;
    }
  | Direct of conn * Protocol.response  (* stats, shutdown, errors *)

type t = {
  pool : Engine.Pool.t;
  cache : string Cache.t;
  by_bytes : string array Cache.t;
      (* payload digest -> the keys it decoded to; its own hit/miss
         counters are never reported *)
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable funcs_served : int;
  mutable funcs_allocated : int;
  mutable requests_served : int;
  mutable batches : int;
  mutable stopping : bool;
}

let cache_key (m : Machine.t) algo_name (f : Cfg.func) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Cfg.body_digest f);
  Codec.write_string buf f.Cfg.name;
  Codec.write_string buf m.Machine.name;
  Codec.write_int buf m.Machine.k;
  Codec.write_int buf m.Machine.n_volatile;
  Codec.write_int buf m.Machine.n_arg_regs;
  Codec.write_int buf m.Machine.ret_index;
  Codec.write_int buf m.Machine.limited_size;
  Buffer.add_char buf
    (match m.Machine.pair_rule with
    | Machine.Parity -> '\000'
    | Machine.Consecutive -> '\001');
  Codec.write_string buf algo_name;
  Buffer.contents buf

(* The whole per-function pipeline, run on a pool worker.  Errors are
   values: one failing function must not take down the batch (other
   requests ride in it). *)
let run_job job =
  try
    let prepared = Pipeline.prepare_func job.machine job.func in
    let res = Allocator.exec job.algo job.machine prepared in
    let fin = Finalize.apply job.machine res in
    Ok (Protocol.encode_func_reply res fin)
  with exn -> Error (Printexc.to_string exn)

let server_stats t =
  {
    Protocol.cache = Cache.stats t.cache;
    funcs_served = t.funcs_served;
    funcs_allocated = t.funcs_allocated;
    requests_served = t.requests_served;
    batches = t.batches;
    pool_jobs = Engine.Pool.jobs t.pool;
  }

let close_conn t conn =
  Hashtbl.remove t.conns conn.fd;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let send t conn response =
  t.requests_served <- t.requests_served + 1;
  try Protocol.write_frame conn.fd (Protocol.encode_response response)
  with Unix.Unix_error _ | Protocol.Error _ -> close_conn t conn

(* Phase A: decode each request into per-function slots, consulting the
   cache (hits and misses are counted here) and deduplicating misses
   into the batch's job list. *)
let stage_request t conn digest (req : Protocol.request) jobs job_index =
  match req with
  | Protocol.Stats -> Direct (conn, Protocol.Stats_reply (server_stats t))
  | Protocol.Shutdown ->
      t.stopping <- true;
      Direct (conn, Protocol.Shutdown_ack)
  | Protocol.Alloc { machine; algo; program } -> (
      match Allocator.find algo with
      | None ->
          Direct
            ( conn,
              Protocol.Error_reply
                (Printf.sprintf "unknown allocator %s (valid: %s)" algo
                   (String.concat ", " (Allocator.names ()))) )
      | Some a -> (
          match
            match program with
            | Protocol.Binary p -> Ok p.Cfg.funcs
            | Protocol.Text src -> (
                try Ok (Mini_compile.compile_source src).Cfg.funcs
                with
                | Mini_compile.Error m
                | Mini_parser.Error m
                | Mini_lexer.Error m
                ->
                  Error ("minilang: " ^ m))
          with
          | Error msg -> Direct (conn, Protocol.Error_reply msg)
          | Ok funcs ->
              let keys = List.map (cache_key machine algo) funcs in
              let slots =
                List.map2
                  (fun key f ->
                    match Cache.find t.cache key with
                    | Some blob -> Hit blob
                    | None ->
                        if not (Hashtbl.mem job_index key) then begin
                          Hashtbl.replace job_index key ();
                          jobs := { key; machine; algo = a; func = f } :: !jobs
                        end;
                        Miss key)
                  keys funcs
              in
              Alloc_pending { conn; digest; keys = Array.of_list keys; slots }))

(* A payload answered before is served from [by_bytes] when every key
   it decoded to is still cached: the same counted finds, in the same
   order, that decoding it again would make.  Otherwise (a stale entry
   included) it is decoded. *)
let stage t conn payload jobs job_index =
  let digest = Digest.string payload in
  match Cache.find t.by_bytes digest with
  | Some keys when Array.for_all (Cache.mem t.cache) keys ->
      let slots =
        Array.fold_right
          (fun key acc -> Hit (Option.get (Cache.find t.cache key)) :: acc)
          keys []
      in
      Alloc_pending { conn; digest; keys; slots }
  | _ -> (
      match Protocol.decode_request payload with
      | req -> stage_request t conn digest req jobs job_index
      | exception (Protocol.Error msg | Codec.Error msg) ->
          Direct (conn, Protocol.Error_reply msg))

(* Phase B + C: run the deduplicated jobs as one pool batch, feed the
   cache, then answer every request in arrival order. *)
let process_batch t reqs =
  let jobs = ref [] and job_index = Hashtbl.create 16 in
  let staged =
    List.map (fun (conn, payload) -> stage t conn payload jobs job_index) reqs
  in
  let results = Hashtbl.create 16 in
  (match List.rev !jobs with
  | [] -> ()
  | batch ->
      t.batches <- t.batches + 1;
      t.funcs_allocated <- t.funcs_allocated + List.length batch;
      let outs = Engine.Pool.map t.pool run_job batch in
      List.iter2
        (fun job out ->
          (match out with Ok blob -> Cache.add t.cache job.key blob | Error _ -> ());
          Hashtbl.replace results job.key out)
        batch outs);
  List.iter
    (fun pending ->
      match pending with
      | Direct (conn, response) -> send t conn response
      | Alloc_pending { conn; digest; keys; slots } ->
          let response =
            try
              let blobs =
                List.map
                  (fun slot ->
                    match slot with
                    | Hit blob -> blob
                    | Miss key -> (
                        match Hashtbl.find results key with
                        | Ok blob -> blob
                        | Error msg -> failwith msg))
                  slots
              in
              t.funcs_served <- t.funcs_served + List.length blobs;
              Cache.add t.by_bytes digest keys;
              Protocol.Funcs blobs
            with Failure msg -> Protocol.Error_reply msg
          in
          send t conn response)
    staged

(* ---- frame extraction -------------------------------------------------- *)

(* Pull every complete frame out of a connection's pending buffer.
   Queues the payloads, undecoded, in arrival order, so every reply —
   a decode error's included — goes out in frame order; a bad length
   prefix poisons the stream, so the connection is closed. *)
let drain_frames t conn out =
  let data = Buffer.contents conn.pending in
  let len = String.length data in
  let off = ref 0 and alive = ref true in
  while !alive && len - !off >= 4 do
    let frame_len =
      Int32.to_int (String.get_int32_le data !off)
    in
    if frame_len < 0 || frame_len > Protocol.max_frame then begin
      send t conn
        (Protocol.Error_reply (Printf.sprintf "bad frame length %d" frame_len));
      close_conn t conn;
      alive := false
    end
    else if len - !off - 4 >= frame_len then begin
      out := (conn, String.sub data (!off + 4) frame_len) :: !out;
      off := !off + 4 + frame_len
    end
    else alive := false
  done;
  if Hashtbl.mem t.conns conn.fd then begin
    Buffer.clear conn.pending;
    Buffer.add_substring conn.pending data !off (len - !off)
  end

let read_chunk = Bytes.create 65536

let handle_readable t conn out =
  match Unix.read conn.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 -> close_conn t conn
  | n ->
      Buffer.add_subbytes conn.pending read_chunk 0 n;
      drain_frames t conn out
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t conn

(* ---- event loop -------------------------------------------------------- *)

let run ?(on_ready = fun () -> ()) cfg =
  (if Sys.file_exists cfg.socket_path then
     try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  let t =
    {
      pool = Engine.Pool.create ~jobs:(max 1 cfg.jobs);
      cache = Cache.create ~capacity:cfg.cache_capacity;
      by_bytes = Cache.create ~capacity:cfg.cache_capacity;
      conns = Hashtbl.create 16;
      funcs_served = 0;
      funcs_allocated = 0;
      requests_served = 0;
      batches = 0;
      stopping = false;
    }
  in
  on_ready ();
  while not t.stopping do
    let fds =
      listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) t.conns []
    in
    match Unix.select fds [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        let reqs = ref [] in
        List.iter
          (fun fd ->
            if fd == listen_fd then begin
              match Unix.accept listen_fd with
              | client, _ ->
                  Hashtbl.replace t.conns client
                    { fd = client; pending = Buffer.create 4096 }
              | exception Unix.Unix_error _ -> ()
            end
            else
              match Hashtbl.find_opt t.conns fd with
              | Some conn -> handle_readable t conn reqs
              | None -> ())
          readable;
        let reqs = List.rev !reqs in
        if reqs <> [] then process_batch t reqs
  done;
  Hashtbl.iter (fun _ conn -> try Unix.close conn.fd with _ -> ()) t.conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  Engine.Pool.shutdown t.pool
