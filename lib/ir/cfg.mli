(** Control-flow graphs, functions and programs.

    A function is a list of basic blocks.  Each block carries a unique
    label and a non-empty flat instruction array whose last element is
    the unique terminator — backward passes iterate the array from the
    top index down, with no reversal or per-pass caching.  The entry
    block comes first.

    Register metadata (class of each virtual register, the next fresh
    register and instruction identifiers) lives in mutable tables shared
    by all rewritten versions of the function, so passes that rebuild
    the block list keep register identities stable.  The class table
    ({!Classes}) is one byte per virtual register, indexed by its id
    less {!Reg.first_virtual}: virtual ids are dense below [next_reg],
    so a lookup is one byte read and a copy one blit.  Labels are dense
    too (below [next_label]); per-block facts are arrays of length
    {!label_bound}.  Each function also
    carries a lazily-built {e dense instruction numbering}: consecutive
    indices over the body in block order, recoverable from the stable
    instruction ids, so per-instruction side tables are plain
    int-indexed arrays.  Every body rewrite ([with_blocks],
    [map_instrs]) renumbers by dropping the cache. *)

type block = { label : Instr.label; instrs : Instr.t array }

type numbering
(** Dense per-function instruction numbering (see {!instr_index}). *)

(** The class of every virtual register of a function. *)
module Classes : sig
  type t

  val create : int -> t
  (** An empty table; the argument is a capacity hint in registers. *)

  val add : t -> Reg.t -> Reg.cls -> unit
  (** Record (or overwrite) a virtual register's class.
      @raise Invalid_argument for a physical register. *)

  val find_opt : t -> Reg.t -> Reg.cls option
  val length : t -> int
  (** Number of registers with a recorded class. *)

  val fold : (Reg.t -> Reg.cls -> 'a -> 'a) -> t -> 'a -> 'a
  (** Ascending register order. *)

  val copy : t -> t
end

type func = {
  name : string;
  entry : Instr.label;
  blocks : block list;
  n_params : int;
  reg_cls : Classes.t;
  mutable next_reg : Reg.t;
  mutable next_instr_id : int;
  mutable next_label : Instr.label;
  mutable numbering : numbering option;
      (** Cache; managed by [with_blocks]/[map_instrs]/[clone]. *)
}

type program = { funcs : func list; main : string }

(** {1 Construction} *)

val create_func : name:string -> n_params:int -> entry:Instr.label -> func
(** A function with no blocks yet; fill in with [with_blocks]. *)

val mk_block : Instr.label -> Instr.t array -> block
(** Checked block constructor: the body must be non-empty with the
    unique terminator in the last slot.
    @raise Invalid_argument otherwise. *)

val with_blocks : func -> block list -> func
(** Same function, new body.  Shares register metadata; the dense
    numbering of the result is rebuilt on demand. *)

val clone : func -> func
(** Deep copy, including register metadata.  SSA construction and the
    allocators clone their input so that runs do not perturb each
    other through the shared fresh-name counters. *)

val fresh_reg : func -> Reg.cls -> Reg.t
val fresh_label : func -> Instr.label
val instr : func -> Instr.kind -> Instr.t
(** Wrap a kind with a fresh instruction id. *)

val cls_of : func -> Reg.t -> Reg.cls
(** Class of any register: physical from the encoding, virtual from the
    function's table.
    @raise Not_found if the virtual register was never declared. *)

(** {1 Queries} *)

val block : func -> Instr.label -> block
val successors : block -> Instr.label list
val terminator : block -> Instr.t

val label_bound : func -> int
(** Length of the function's label-indexed arrays: one past the largest
    label the entry, a block or a branch target names, and at least
    [next_label]. *)

val blocks_by_label : func -> block option array
(** The block of each label (the first, should labels repeat), in an
    array of length {!label_bound}. *)

val predecessors : func -> Instr.label list array
(** Predecessor labels of each label, in an array of length
    {!label_bound}; a label's list runs in reverse block order. *)

val reverse_postorder : func -> Instr.label list
(** Reachable blocks in reverse postorder from the entry. *)

val iter_instrs : func -> (block -> Instr.t -> unit) -> unit
val fold_instrs : func -> ('a -> block -> Instr.t -> 'a) -> 'a -> 'a

(** {1 Dense instruction numbering}

    Instructions receive consecutive indices [0 .. n_instrs - 1] in
    block order (blocks in list order, instructions first to last).
    The numbering is built lazily from the current body and cached on
    the function; it is keyed by the stable instruction ids, so a
    rewritten instruction ([{ i with kind }], same id) keeps its index
    until the next body rewrite renumbers. *)

val n_instrs : func -> int
(** Total instruction count of the body. *)

val instr_index : func -> Instr.t -> int
(** Dense index of an instruction of this function.
    @raise Invalid_argument if the instruction is not in the body. *)

val all_vregs : func -> Reg.Set.t
(** Every virtual register occurring in the body. *)

val map_instrs : func -> (Instr.t -> Instr.kind) -> func
(** Rewrite every instruction kind in place (ids preserved). *)

val body_digest : func -> string
(** A stable 16-byte content digest of the function body: block
    structure (order, labels, entry, [n_params]), every instruction
    kind in body order, and the register class of every register
    occurrence.  Instruction ids, the function name and the fresh-name
    counters are excluded — the digest depends only on what allocation
    observes, never on construction history, physical equality or the
    lazy numbering cache.  Invariant under {!clone}; changed by any
    single-instruction edit.  This is the content-addressed cache key
    of the allocation service ([lib/serve]). *)

val find_func : program -> string -> func

(** {1 Validation and printing} *)

val validate : func -> (unit, string) result
(** Check structural invariants: non-empty blocks, single trailing
    terminator, branch targets exist, the entry block present and
    leading the block list, phis only at block heads with sources
    matching predecessors, instruction ids unique and below
    [next_instr_id], a class for every virtual register, physical
    destinations for every [Load_pair] (only finalization pairs loads).
    Run by the verifier's linter on every phase snapshot and by the
    daemon's decoder on every function. *)

val pp_block : Format.formatter -> block -> unit
val pp_func : Format.formatter -> func -> unit
val pp_program : Format.formatter -> program -> unit
