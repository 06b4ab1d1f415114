let default_jobs () =
  match Sys.getenv_opt "PDGC_JOBS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> 1)

(* One slot per input item; workers only ever write their own claimed
   slots, so the arrays need no lock — the queue cursor is the only
   shared word. *)
type 'b slot = Empty | Done of 'b | Raised of exn * Printexc.raw_backtrace

(* A claimed slice of the current batch, read under the pool lock so
   every worker sees the batch the claim belongs to. *)
type slice = { lo : int; hi : int; run_item : int -> unit }

module Pool = struct
  (* A persistent domain pool: the daemon use case submits thousands of
     small batches, and respawning domains per batch ([map] below) costs
     a spawn/join round-trip and GC-coordination churn each time.  The
     pool keeps [jobs - 1] worker domains parked on a condition
     variable; submitting a batch publishes a run-item closure plus a
     chunked cursor (the same claiming discipline as [map]) and wakes
     everyone, and the caller participates as worker 0.  All batch
     state is published and claimed under one mutex, so a worker never
     observes a half-installed batch. *)
  type state = {
    lock : Mutex.t;
    work : Condition.t;  (* a new batch arrived, or stop *)
    finished : Condition.t;  (* completed reached size *)
    mutable run_item : int -> unit;  (* index -> unit *)
    mutable size : int;
    mutable next : int;
    mutable chunk : int;
    mutable completed : int;
    mutable seq : int;  (* batch sequence number, bumps per submission *)
    mutable stop : bool;
  }

  type t = { st : state; domains : unit Domain.t array; n_workers : int }

  let no_work _ = ()

  (* Claim one slice under the lock.  The run-item closure is read in
     the same critical section as the cursor, so a claim that lands in a
     freshly submitted batch also sees that batch's closure. *)
  let claim st =
    Mutex.lock st.lock;
    let lo = st.next in
    st.next <- lo + st.chunk;
    let slice =
      if lo >= st.size then None
      else Some { lo; hi = min st.size (lo + st.chunk); run_item = st.run_item }
    in
    Mutex.unlock st.lock;
    slice

  let rec drain st =
    match claim st with
    | None -> ()
    | Some { lo; hi; run_item } ->
        for i = lo to hi - 1 do
          run_item i
        done;
        Mutex.lock st.lock;
        st.completed <- st.completed + (hi - lo);
        if st.completed >= st.size then Condition.broadcast st.finished;
        Mutex.unlock st.lock;
        drain st

  let rec worker_loop st ~seen =
    Mutex.lock st.lock;
    while (not st.stop) && st.seq = seen do
      Condition.wait st.work st.lock
    done;
    if st.stop then Mutex.unlock st.lock
    else begin
      let seq = st.seq in
      Mutex.unlock st.lock;
      drain st;
      worker_loop st ~seen:seq
    end

  let create ~jobs =
    (* Same cap as [map]: extra domains on an oversubscribed host cost
       coordination without adding throughput. *)
    let n_workers =
      max 1 (min jobs (max 1 (Domain.recommended_domain_count ())))
    in
    let st =
      {
        lock = Mutex.create ();
        work = Condition.create ();
        finished = Condition.create ();
        run_item = no_work;
        size = 0;
        next = 0;
        chunk = 1;
        completed = 0;
        seq = 0;
        stop = false;
      }
    in
    let domains =
      Array.init (n_workers - 1) (fun _ ->
          Domain.spawn (fun () -> worker_loop st ~seen:0))
    in
    { st; domains; n_workers }

  let jobs t = t.n_workers

  let map t f xs =
    let n = List.length xs in
    if t.n_workers <= 1 || n <= 1 then List.map f xs
    else begin
      let items = Array.of_list xs in
      let out = Array.make n Empty in
      let run_item i =
        out.(i) <-
          (match f items.(i) with
          | v -> Done v
          | exception e -> Raised (e, Printexc.get_raw_backtrace ()))
      in
      let st = t.st in
      Mutex.lock st.lock;
      st.run_item <- run_item;
      st.size <- n;
      st.next <- 0;
      st.completed <- 0;
      st.chunk <- max 1 (n / (t.n_workers * 4));
      st.seq <- st.seq + 1;
      Condition.broadcast st.work;
      Mutex.unlock st.lock;
      (* The caller works too; parked domains race it for slices. *)
      drain st;
      Mutex.lock st.lock;
      while st.completed < st.size do
        Condition.wait st.finished st.lock
      done;
      (* Drop the closure so batch captures do not outlive the call. *)
      st.run_item <- no_work;
      Mutex.unlock st.lock;
      Array.iter
        (function
          | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
          | Done _ | Empty -> ())
        out;
      Array.to_list
        (Array.map
           (function Done v -> v | Empty | Raised _ -> assert false)
           out)
    end

  let shutdown t =
    let st = t.st in
    Mutex.lock st.lock;
    let first = not st.stop in
    if first then begin
      st.stop <- true;
      Condition.broadcast st.work
    end;
    Mutex.unlock st.lock;
    (* Only the call that flipped the flag joins: joining a domain
       twice is an error, and later calls must be no-ops. *)
    if first then Array.iter Domain.join t.domains
end

let map ?(chunk = 1) ~jobs f xs =
  let n = List.length xs in
  (* Never spawn more domains than the host can run: each extra domain
     on an oversubscribed machine costs spawn/join overhead and GC
     coordination without adding throughput. *)
  let jobs = min jobs (max 1 (Domain.recommended_domain_count ())) in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let items = Array.of_list xs in
    let jobs = min jobs n in
    (* Coarsen tiny chunks so the queue cursor is not contended once per
       item; aim for at least ~4 claims per worker to keep balance. *)
    let chunk = max (max 1 chunk) (n / (jobs * 4)) in
    let out = Array.make n Empty in
    let lock = Mutex.create () in
    let next = ref 0 in
    let claim () =
      Mutex.lock lock;
      let lo = !next in
      next := lo + chunk;
      Mutex.unlock lock;
      if lo >= n then None else Some (lo, min n (lo + chunk))
    in
    let rec drain () =
      match claim () with
      | None -> ()
      | Some (lo, hi) ->
          for i = lo to hi - 1 do
            out.(i) <-
              (match f items.(i) with
              | v -> Done v
              | exception e -> Raised (e, Printexc.get_raw_backtrace ()))
          done;
          drain ()
    in
    let pool = Array.init (jobs - 1) (fun _ -> Domain.spawn drain) in
    drain ();
    Array.iter Domain.join pool;
    (* Re-raise the first failure in input order — what the sequential
       path would have raised. *)
    Array.iter
      (function
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
        | Done _ | Empty -> ())
      out;
    Array.to_list
      (Array.map
         (function Done v -> v | Empty | Raised _ -> assert false)
         out)
  end
