(** Imperative construction of {!Cfg.func} values.

    Typical usage:
    {[
      let b = Builder.create ~name:"f" ~n_params:1 in
      let x = Builder.reg b Reg.Int_class in
      Builder.param b x 0;
      Builder.ret b (Some x);
      let f = Builder.finish b
    ]} *)

type t

val create : name:string -> n_params:int -> t
(** A builder positioned at the freshly created entry block. *)

val reg : t -> Reg.cls -> Reg.t

val new_block : t -> Instr.label
(** Create a block label; it becomes part of the function once selected
    with {!switch_to} and filled. *)

val switch_to : t -> Instr.label -> unit
(** Subsequent emissions go to this block. *)

val emit : t -> Instr.kind -> unit

(** {1 Shorthands} — each emits one instruction into the current block.
    Destination-producing shorthands allocate the destination register
    themselves. *)

val move : t -> dst:Reg.t -> src:Reg.t -> unit
val const : t -> ?cls:Reg.cls -> int64 -> Reg.t
val iconst : t -> int -> Reg.t
val fconst : t -> float -> Reg.t
val unop : t -> Instr.unop -> Reg.t -> Reg.t
val binop : t -> Instr.binop -> Reg.t -> Reg.t -> Reg.t
val cmp : t -> Instr.cmp -> Reg.t -> Reg.t -> Reg.t
val load : t -> ?cls:Reg.cls -> base:Reg.t -> offset:int -> unit -> Reg.t
val store : t -> src:Reg.t -> base:Reg.t -> offset:int -> unit
val limited : t -> Reg.t -> Reg.t
val call : t -> ?cls:Reg.cls -> string -> Reg.t list -> Reg.t
val call_void : t -> string -> Reg.t list -> unit
val param : t -> Reg.t -> int -> unit
val jump : t -> Instr.label -> unit
val branch : t -> Reg.t -> ifso:Instr.label -> ifnot:Instr.label -> unit
val ret : t -> Reg.t option -> unit

val finish : t -> Cfg.func
(** Assemble the function.  Blocks appear in creation order; only blocks
    that received at least one instruction are included.
    @raise Invalid_argument if the result fails {!Cfg.validate}. *)
