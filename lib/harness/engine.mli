(** The multicore allocation engine: a fixed pool of [Domain.t] workers
    draining a hand-rolled chunked work queue (stdlib [Domain] /
    [Mutex] only — no external dependencies).

    [map ~jobs f xs] applies [f] to every element of [xs] and returns
    the results in the original order, so a parallel run is
    indistinguishable from [List.map] provided [f] follows the
    {!Allocator} domain-safety contract (all mutable state confined to
    one call).  Exceptions raised by [f] are re-raised in input order:
    the exception the sequential path would have hit first is the one
    the caller sees.

    With [jobs <= 1] (or fewer than two items) no domain is spawned
    and the work runs on the calling domain exactly as before the
    engine existed. *)

val default_jobs : unit -> int
(** Worker count used when a driver does not say: the [PDGC_JOBS]
    environment variable if set to a positive integer, else 1
    (sequential).  [PDGC_JOBS=1] therefore forces the exact sequential
    path everywhere. *)

(** {2 Persistent worker pool}

    [map] spawns and joins its domains per call — the right shape for
    one-shot drivers, and the wrong one for the allocation daemon,
    which dispatches thousands of small batches over its lifetime.
    [Pool] keeps the worker domains alive across batches: workers park
    on a condition variable between submissions, and a batch submission
    publishes the work and wakes them.  One batch runs at a time per
    pool ({!Pool.map} is not reentrant); the determinism contract is
    [map]'s — results merged in input order, first failure re-raised in
    input order, so any pool size produces bit-for-bit the sequential
    output provided [f] follows the {!Allocator} domain-safety
    contract. *)

module Pool : sig
  type t

  val create : jobs:int -> t
  (** Spawn a pool of [min jobs (Domain.recommended_domain_count ())]
      workers (the caller of {!map} counts as one, so [jobs - 1]
      domains are spawned).  [jobs <= 1] spawns nothing and {!map}
      degenerates to [List.map]. *)

  val jobs : t -> int
  (** The effective worker count (after the host cap). *)

  val map : t -> ('a -> 'b) -> 'a list -> 'b list
  (** Like {!Engine.map} but on the persistent workers: no domain is
      spawned or joined.  Must not be called concurrently from two
      threads, and not after {!shutdown}. *)

  val shutdown : t -> unit
  (** Wake every parked worker with a stop flag and join the domains.
      Idempotent. *)
end

val map : ?chunk:int -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] runs [f x] for every [x], spreading items over
    [min jobs (length xs)] workers (one of them the calling domain).
    The effective
    worker count is additionally capped at
    [Domain.recommended_domain_count ()]: asking for more domains than
    the host can run only adds spawn and GC-coordination overhead.
    [chunk] is the minimum number of consecutive items a worker claims
    per queue access (default 1); the engine coarsens it so each
    worker makes at most a handful of queue round-trips, which keeps
    the shared cursor uncontended on many cheap items while still
    balancing coarse uneven ones. *)
