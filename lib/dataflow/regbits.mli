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

    A {!compact} is fixed once built: {!of_func} numbers every register
    of a body, and an allocation round's analyses (liveness, the
    interference graph, spill costs, strengths, the RPG and CPG) all
    share the one numbering of its body, so every per-node array is
    sized once from {!size}.  Bitsets are length-agnostic — membership
    beyond a set's current capacity is [false], and {!Set.add} grows
    the backing array. *)

type compact
(** An immutable bidirectional register [<->] dense-index mapping.  The
    forward direction is direct-mapped: an array over the physical
    registers, and one over the span of the numbered virtual ids.  A
    function's register ids are dense (below its [next_reg]), so a
    lookup is one array read, not a hash, and the arrays stay as small
    as the function's id range. *)

val of_func : Cfg.func -> compact
(** Numbering of every register occurring in the function's
    instructions (defs and uses, physical and virtual), in first-visit
    order — deterministic for a given function body. *)

val of_regs : Reg.t list -> compact
(** Numbering of the listed registers in list order; a repeated
    register keeps its first index.
    @raise Invalid_argument if a register id is negative. *)

val size : compact -> int
(** Number of registers in the numbering. *)

val index : compact -> Reg.t -> int
(** Dense index of [r].
    @raise Invalid_argument if [r] is not in the numbering. *)

val find : compact -> Reg.t -> int option
(** Dense index of [r] if it is in the numbering; [None] for any other
    id, including one past the largest numbered. *)

val find_index : compact -> Reg.t -> int
(** {!find} without the option: [-1] for an id not in the numbering. *)

val reg_at : compact -> int -> Reg.t
(** Inverse of {!index}.  @raise Invalid_argument if out of range. *)

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

  val union_inter_into : src:t -> mask:t -> dst:t -> unit
  (** [dst <- dst ∪ (src ∩ mask)], a word at a time. *)

  val union : t -> t -> t
  (** Fresh set; arguments untouched. *)

  val min_elt : t -> int
  (** The smallest member, found by one bit scan of the first non-empty
      word.  @raise Not_found if the set is empty. *)

  val iter : t -> (int -> unit) -> unit
  (** Ascending index order. *)

  val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a

  val symmetrize : t array -> unit
  (** [symmetrize rows] adds [i] to row [j] for every [j] in row [i]:
      the rows, each holding indices below [Array.length rows] and as
      wide as that, become a symmetric bit matrix.  One pass over the
      members, a word store each. *)

  val to_reg_set : compact -> t -> Reg.Set.t
end

(** Growable int vectors — the adjacency-list representation used by
    the dense interference graph. *)
module Vec : sig
  type t

  val create : unit -> t
  val length : t -> int
  val get : t -> int -> int
  val push : t -> int -> unit

  val insert_sorted : t -> int -> unit
  (** Insert a value into an ascending vector at its place, shifting
      the larger ones up; a value already present is left alone. *)

  val remove_sorted : t -> int -> unit
  (** Remove a value from an ascending vector, shifting the larger ones
      down; absent, nothing changes. *)

  val iter : t -> (int -> unit) -> unit
  val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a
  val copy : t -> t

  val of_set : Set.t -> t
  (** The set's members, ascending, in a vector of exactly their
      number. *)
end
