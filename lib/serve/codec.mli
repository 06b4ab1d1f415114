(** Compact binary IR codec.

    A length-delimited binary encoding of {!Cfg.func} and
    {!Cfg.program} for the allocation daemon's wire protocol: zigzag
    LEB128 varints for every integer (registers, labels, offsets,
    counters), length-prefixed strings, one tag byte per instruction
    kind.  The codec round-trips {e everything} allocation observes —
    block structure, instruction ids, spill-slot metadata
    ([Spill]/[Reload] slots), the register-class table and the
    fresh-name counters — so a decoded function runs the pipeline
    bit-for-bit like the original.

    Determinism contract: {!write_func} appends a pure function of the
    function's structural content (the class table is emitted in
    ascending register order), and re-encoding what {!read_func}
    decodes gives the same bytes. *)

exception Error of string
(** Raised by the decoders on truncated, oversized or malformed
    input, including a function {!Cfg.validate} rejects.  The message
    names the offset and what was expected. *)

val max_counter : int
(** Largest fresh-name counter ([next_reg], [next_instr_id],
    [next_label]) a decoded function may carry: 2{^20}.  The allocator
    sizes arrays by register id, instruction id and label, so the
    decoder also rejects any register id outside [\[0, next_reg)],
    instruction id outside [\[0, next_instr_id)] and label outside
    [\[0, next_label)], and any element count larger than the bytes
    left.  The class table, a byte per register up to the largest it
    names, may name only virtual registers below
    [Reg.first_virtual + n] for its [n] entries.  A frame (at most
    {!Protocol.max_frame} bytes) can then make the daemon allocate only
    in proportion to its size, never by a counter it claims. *)

(** {2 Functions and programs}

    The wire protocol embeds encoded values inside larger frames, so
    the codec writes to a buffer and reads from a cursor;
    {!Protocol} checks that a payload ends where its value does. *)

val write_func : Buffer.t -> Cfg.func -> unit

val write_program : Buffer.t -> Cfg.program -> unit
(** A ["PDGC1"] magic header, the [main] name, then the functions. *)

type reader
(** A cursor over an input string. *)

val reader : ?pos:int -> string -> reader
val pos : reader -> int
val read_func : reader -> Cfg.func
val read_program : reader -> Cfg.program

(** {2 Primitives}

    Shared with the protocol layer so frames and payloads agree on one
    integer and string representation. *)

val write_int : Buffer.t -> int -> unit
val write_string : Buffer.t -> string -> unit

val int_size : int -> int
val put_int : Bytes.t -> int -> int -> int
(** [put_int b pos n] writes what {!write_int} would append, at [pos],
    and returns the position after it; {!int_size} is its length. *)

val string_size : string -> int
val put_string : Bytes.t -> int -> string -> int
(** {!put_int}'s counterpart for {!write_string}. *)

val read_byte : reader -> int
val read_int : reader -> int
val read_string : reader -> string
