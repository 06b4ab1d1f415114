(** Load generator for the allocation daemon.

    Replays streams of {!Gen} workload programs against a running
    daemon, measuring end-to-end throughput and per-request latency
    ([pdgc_loadgen]'s measurement mode).  Also hosts the
    [@serve-smoke] selftest: daemon-vs-one-shot byte equivalence,
    cached-vs-uncached byte equivalence, and [jobs=1 ≡ jobs=4]. *)

type pass = {
  functions : int;  (** functions answered across the pass *)
  requests : int;
  elapsed_s : float;
  fns_per_s : float;
  p50_ms : float;  (** per-request latency percentiles *)
  p99_ms : float;
}

val programs :
  seed:int -> funcs_per_program:int -> n_funcs:int -> Cfg.program list
(** A deterministic stream of distinct small workload programs
    totalling at least [n_funcs] functions.  Distinct seeds per
    program, so a cold replay misses the cache on every function. *)

val encode_requests :
  machine:Machine.t -> algo:string -> Cfg.program list -> string list
(** Serialize each program into one binary-IR [Alloc] request payload.
    Encoding once up front keeps client-side codec work (and, if the
    caller drops the [Cfg] programs, client-side GC marking of a large
    pointer-rich heap) out of the timed replay passes. *)

val replay_encoded :
  socket:string -> ?clients:int -> string list -> (pass, string) result
(** Send each pre-encoded request and collect latencies.
    [clients > 1] opens that many connections driven by threads,
    requests dealt round-robin — concurrent requests exercise the
    daemon's cross-request batching.  [Error] carries the daemon's
    first error reply. *)

val replay :
  socket:string ->
  machine:Machine.t ->
  algo:string ->
  ?clients:int ->
  Cfg.program list ->
  (pass, string) result
(** [encode_requests] composed with [replay_encoded]. *)

val replay_blobs :
  socket:string ->
  machine:Machine.t ->
  algo:string ->
  Cfg.program list ->
  (string list list, string) result
(** Like {!replay} but returning the raw per-function reply blobs per
    program, for byte-equivalence checks. *)

val with_daemon :
  ?jobs:int ->
  ?cache_capacity:int ->
  ?exe:string ->
  socket:string ->
  (unit -> 'a) ->
  'a
(** Fork a daemon on [socket] — in-process {!Server.run} in the child,
    or [exe] (a pdgcd binary) when given — run the thunk, then shut the
    daemon down and reap it.  The parent must not have spawned domains
    before the fork (fork and multicore do not mix); callers sequence
    daemon work first. *)

val one_shot_blobs :
  machine:Machine.t -> algo:Allocator.t -> Cfg.program -> string list
(** The per-function reply blobs the one-shot pipeline
    ([Pipeline.allocate_program] over [Pipeline.prepare]) produces —
    the reference the daemon must match byte for byte. *)

val selftest : ?exe:string -> unit -> (unit, string) result
(** The [@serve-smoke] body.  Starts daemons on temp sockets and
    checks: daemon responses equal one-shot blobs for binary and text
    wire formats; a warm replay is byte-identical to the cold one and
    is served from the cache; [jobs=1] and [jobs=4] daemons agree;
    unknown allocators and malformed programs get error replies naming
    the problem; a repeated request (binary, 3-function, text) gets
    byte-identical replies and the stats counters a decode would give,
    also after its function was evicted; a good frame and a malformed
    one sent in one write are answered in frame order; a good frame
    followed by a bad length prefix in one write gets its reply, then
    the [bad frame length] error, then EOF; shutdown is
    acknowledged.  [Error] names the first failed check. *)
