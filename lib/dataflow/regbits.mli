(** Dense register sets.

    The allocator's hot paths (liveness fixpoint, interference-graph
    construction, coalescing) operate on sets of registers.  Registers
    are already small integers ({!Reg.t}), but a function only touches a
    tiny, arbitrary slice of the register namespace, so this module
    introduces a per-function {e compact numbering} — every register
    occurring in the function body mapped to [0 .. n-1] — together with
    an int-array bitset over those indices.  Set operations then cost a
    word-parallel sweep instead of a balanced-tree walk, which is the
    classic engineering move of production Chaitin/Briggs allocators.

    A {!compact} is growable: interning a register that appeared after
    the initial numbering (fresh spill temporaries, for instance) simply
    appends it.  Bitsets are length-agnostic — membership beyond a set's
    current capacity is [false], and {!Set.add} grows the backing array
    — so sets created before a growth step remain valid. *)

type compact
(** A bidirectional register [<->] dense-index mapping. *)

val create : unit -> compact
(** An empty numbering; registers are interned on first {!index}. *)

val of_func : Cfg.func -> compact
(** Numbering seeded with every register occurring in the function's
    instructions (defs and uses, physical and virtual), in first-visit
    order — deterministic for a given function body. *)

val size : compact -> int
(** Number of registers interned so far. *)

val index : compact -> Reg.t -> int
(** Dense index of [r], interning it if new. *)

val find : compact -> Reg.t -> int option
(** Dense index of [r] if already interned. *)

val reg_at : compact -> int -> Reg.t
(** Inverse of {!index}.  @raise Invalid_argument if out of range. *)

(** Growable int vectors — the adjacency-list representation used by
    the dense interference graph. *)
module Vec : sig
  type t

  val create : unit -> t
  val length : t -> int
  val get : t -> int -> int
  val push : t -> int -> unit

  val remove_value : t -> int -> bool
  (** Remove the first occurrence of a value (order not preserved);
      [true] if found. *)

  val iter : t -> (int -> unit) -> unit
  val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a
  val copy : t -> t
  val clear : t -> unit
end

(** Mutable bitsets over dense indices. *)
module Set : sig
  type t

  val create : int -> t
  (** [create n] is the empty set with initial capacity for indices
      [0 .. n-1].  Capacity grows on demand; it is a hint, not a
      bound. *)

  val copy : t -> t
  val clear : t -> unit
  val mem : t -> int -> bool
  val add : t -> int -> unit
  val remove : t -> int -> unit
  val is_empty : t -> bool
  val cardinal : t -> int

  val equal : t -> t -> bool
  (** Logical equality: capacities may differ. *)

  val union_into : src:t -> dst:t -> bool
  (** [dst <- dst ∪ src]; [true] iff [dst] changed. *)

  val union : t -> t -> t
  (** Fresh set; arguments untouched. *)

  val iter : t -> (int -> unit) -> unit
  (** Ascending index order. *)

  val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a

  val remove_inter : src:t -> dst:t -> (int -> unit) -> unit
  (** [dst <- dst \ src], calling the function on each removed index
      ([dst ∩ src]) in ascending order; [src] is untouched.  One
      word-wise pass over the shorter of the two rows. *)

  val to_reg_set : compact -> t -> Reg.Set.t
  val of_reg_set : compact -> Reg.Set.t -> t
end
