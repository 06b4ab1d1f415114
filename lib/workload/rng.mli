(** Deterministic pseudo-random numbers (splitmix64).

    The workload generator must produce identical programs on every
    run, so it cannot depend on [Random]'s global state. *)

type t

val create : int -> t
val int : t -> int -> int
(** [int t bound] in [0 .. bound-1]; [bound > 0]. *)

val range : t -> int -> int -> int
(** [range t lo hi] inclusive on both ends. *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val pick : t -> 'a list -> 'a
(** Uniform choice. @raise Invalid_argument on an empty list. *)

val split : t -> t
(** An independent stream. *)
