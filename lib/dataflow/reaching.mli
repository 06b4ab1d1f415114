(** Reaching definitions.

    A definition site is an instruction that defines exactly one
    virtual register (every IR instruction defines at most one).
    Sites are numbered densely in block order and the dataflow facts
    are bitsets over those indices.  Used by web construction
    (Chaitin's "renumber" phase). *)

type t

val compute : Cfg.func -> t

val n_sites : t -> int
(** Number of definition sites; sites are [0 .. n_sites - 1] in block
    order. *)

val site_reg : t -> int -> Reg.t
(** Register defined at a site. *)

val sites_of_reg : t -> Reg.t -> int list
(** All sites defining a register, in program order. *)

val iter_block_forward_bits :
  t ->
  Cfg.block ->
  f:(reaching:Regbits.Set.t -> site:int -> Instr.t -> unit) ->
  unit
(** Walk a block first to last; [f] sees each instruction with the
    sites reaching it (before its own effects, in a scratch bitset
    valid only during the call) and the instruction's own site ([-1]
    for non-definitions). *)
