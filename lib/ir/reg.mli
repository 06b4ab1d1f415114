(** Registers.

    A register is an integer identifier.  Identifiers below
    {!first_virtual} are reserved for the physical registers of the two
    register files (integer and floating point); identifiers at or above
    {!first_virtual} denote virtual registers (live-range names).

    The physical-register encoding is global and target-independent: a
    target merely decides how many of the reserved slots are usable (its
    [k]) and how they are partitioned into volatile / non-volatile and
    argument / return registers (see {!Target.Machine}). *)

type t = int

(** Register class.  Each class is allocated against its own register
    file, as in the paper's experimental setup (separate integer and
    floating-point results). *)
type cls = Int_class | Float_class

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
(** The register's id.  [Hashtbl.Make] masks a hash to its power-of-two
    table size, so consecutive ids land in consecutive buckets, and ids
    are dense: virtual registers are numbered by [Cfg.fresh_reg], and a
    decoded function names no class entry at or above [first_virtual]
    plus its entry count, so a request cannot pile keys into one bucket.
    A {!Tbl} traversal visits keys in bucket order, which follows the
    ids; no allocator output depends on it (every traversal in the
    library is membership, a bitset fill, independent per-key writes or
    a list sorted afterwards). *)

(** Maximum number of physical registers per class that the encoding can
    describe.  Targets use [k <= max_phys] of them. *)
val max_phys : int

(** [first_virtual] is the smallest identifier denoting a virtual
    register. *)
val first_virtual : t

(** [phys cls i] is the physical register [i] of class [cls].
    @raise Invalid_argument if [i] is outside [0 .. max_phys - 1]. *)
val phys : cls -> int -> t

val is_phys : t -> bool
val is_virtual : t -> bool

(** [phys_index r] is the index of physical register [r] within its
    class's register file.
    @raise Invalid_argument if [r] is virtual. *)
val phys_index : t -> int

(** [phys_cls r] is the class of physical register [r].
    @raise Invalid_argument if [r] is virtual. *)
val phys_cls : t -> cls

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
