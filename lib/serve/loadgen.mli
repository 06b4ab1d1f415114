(** The [@serve-smoke] checks for the allocation daemon, and the
    request helpers the daemon benchmark shares with them.

    [pdgc_loadgen] runs {!selftest} against a real [pdgcd] binary:
    daemon-vs-one-shot byte equivalence, cached-vs-uncached byte
    equivalence, [jobs=1 ≡ jobs=4], concurrent connections, and
    in-band error replies.  Throughput and latency are measured only by
    perfbench's [daemon-zipf] workload. *)

val encode_requests :
  machine:Machine.t -> algo:string -> Cfg.program list -> string list
(** Serialize each program into one binary-IR [Alloc] request payload. *)

val one_shot_blobs :
  machine:Machine.t -> algo:Allocator.t -> Cfg.program -> string list
(** The per-function reply blobs the one-shot pipeline
    ([Pipeline.allocate_program] over [Pipeline.prepare]) produces —
    the reference the daemon must match byte for byte. *)

val selftest : exe:string -> unit -> (unit, string) result
(** The [@serve-smoke] body.  Starts daemons from the pdgcd binary
    [exe] on temp sockets and checks: daemon responses equal one-shot
    blobs for binary and text wire formats; a warm replay is
    byte-identical to the cold one and is served from the cache; five
    connections whose request frames are all written before any reply
    is read, four of them while the daemon allocates the first one's,
    each get replies byte-identical to the one-shot blobs; four
    connections opened and written together, with no stats round trip
    first, while the daemon is blocked writing the replies to a flood
    of stats requests, get the one-shot bytes from one batch;
    [jobs=1] and [jobs=4] daemons agree; unknown allocators, malformed
    programs and a machine with [k = 0] get error replies naming the
    problem, and the next request on that connection still gets the
    one-shot bytes, also after a function Lower rejects fails its
    request and no other in a mixed batch, or fails a 3-function
    request as a whole, caching only its good functions; a
    repeated request (binary, 3-function, text) gets byte-identical
    replies and the stats counters a decode would give, also after its
    function was evicted; a good frame and a malformed one sent in one
    write are answered in frame order; a good frame followed by a bad
    length prefix in one write gets its reply, then the
    [bad frame length] error, then EOF; shutdown is acknowledged.
    [Error] names the first failed check. *)
