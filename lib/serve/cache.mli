(** Content-addressed allocation cache with LRU bounding and
    second-miss admission.

    Maps opaque string keys — the daemon keys on (function-body digest,
    machine config, K, allocator name) — to cached values.  Below
    [capacity] every new key is kept.  Once the cache is full, a new key
    is kept only on its second miss: the first [add] refuses it and
    records it in a ghost of the last [capacity] refused keys; an [add]
    of a key still in the ghost takes it out and evicts the
    least-recently-used entry (TinyLFU's doorkeeper: a key asked for
    once never pushes out a hot one).  Every lookup counts a hit or a
    miss and refreshes the entry's recency; counters are monotonic over
    the cache's lifetime and unaffected by eviction. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity <= 0] means unbounded (nothing is ever evicted). *)

val find : 'a t -> string -> 'a option
(** Counted: a [Some] bumps hits and recency, a [None] bumps misses. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (or refresh) a binding.  Re-adding an existing key replaces
    the value without eviction; a new key is inserted while the cache
    has room.  In a full cache a new key that is in the ghost leaves it
    and replaces the coldest entry; any other new key is refused
    (counted in [refused], recorded in the ghost, the cache unchanged). *)

val mem : 'a t -> string -> bool
(** Uncounted, recency-neutral membership probe. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;  (** 0 = unbounded *)
  refused : int;  (** first misses declined while the cache was full *)
}

val stats : 'a t -> stats
