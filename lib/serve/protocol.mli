(** The daemon's wire protocol.

    Framing: every message — request or response — is one frame, a
    4-byte little-endian payload length followed by the payload.
    Payloads above {!max_frame} bytes are rejected on both sides, so a
    corrupt length prefix cannot make a peer allocate unboundedly.

    Requests (first payload byte is the opcode):
    - [1] allocate: machine config, allocator name, then the program in
      one of the two wire formats — [0] codec-encoded binary IR
      ({!Codec}), [1] minilang source text (compiled server-side);
    - [2] stats: cache and service counters;
    - [3] shutdown: acknowledged, then the daemon exits.

    Responses (first payload byte is the status):
    - [0] allocation reply: one length-prefixed {e function reply} blob
      per function, in program order.  The blob is the unit the
      content-addressed cache stores, so a cached and an uncached
      response to the same request are byte-identical by construction;
    - [1] stats reply;
    - [2] shutdown acknowledgement;
    - [255] error, with a message.  Protocol errors (bad opcode,
      malformed payload, a machine {!Machine.make} rejects, unknown
      allocator) are answered with an error
      reply on the same connection, which stays open; only a broken
      frame header closes the connection. *)

val max_frame : int
(** Upper bound on payload size, for both peers: 64 MiB.  Within a
    payload, {!Codec.max_counter} bounds the counters of each decoded
    function. *)

exception Error of string
(** Malformed frame or payload. *)

exception Closed
(** The peer closed the connection mid-frame. *)

(** {2 Messages} *)

type wire_program =
  | Binary of Cfg.program  (** codec-encoded IR *)
  | Text of string  (** minilang source, compiled by the daemon *)

type request =
  | Alloc of { machine : Machine.t; algo : string; program : wire_program }
  | Stats
  | Shutdown

type server_stats = {
  cache : Cache.stats;
  funcs_served : int;  (** functions answered, cached or not *)
  funcs_allocated : int;  (** functions that ran the full pipeline *)
  requests_served : int;
  batches : int;  (** dispatch rounds (cross-request batching) *)
  pool_jobs : int;  (** effective worker count of the persistent pool *)
}

type response =
  | Funcs of string list  (** per-function reply blobs, program order *)
  | Stats_reply of server_stats
  | Shutdown_ack
  | Error_reply of string

val write_machine : Buffer.t -> Machine.t -> unit
(** A machine config's wire layout, as an allocate request carries it
    (the daemon's cache keys embed the same bytes). *)

(** {2 Per-function reply blobs} *)

type func_reply = {
  func : Cfg.func;  (** finalized machine code *)
  rounds : int;
  spill_instrs : int;
  moves_eliminated : int;
  moves_kept : int;
  pairs_fused : int;
  callee_saved : int;
  caller_save_instrs : int;
  spill_slots : (Reg.t * int) list;
}

val encode_func_reply : Alloc_common.result -> Finalize.t -> string
(** Deterministic: a pure function of the allocation outcome, so equal
    pipelines yield byte-equal blobs (the cache-consistency and
    daemon-vs-one-shot equivalence checks compare these directly). *)

val decode_func_reply : string -> func_reply

(** {2 Payload encoding} *)

val encode_request : request -> string
val decode_request : string -> request
(** @raise Error on a malformed payload, including a machine config
    that {!Machine.make} rejects (the error carries its message) and
    bytes after the request ([trailing garbage at offset N]; the same
    for {!decode_response} and {!decode_func_reply}).
    @raise Codec.Error on a malformed program. *)

val encode_response : response -> string
val decode_response : string -> response

(** {2 Framed blocking I/O} *)

val write_frame : Unix.file_descr -> string -> unit

val write_response : Unix.file_descr -> response -> unit
(** [write_frame fd (encode_response resp)], the bytes identical, but a
    function reply is encoded directly into the frame: each blob is
    copied once.  @raise Error on a payload above {!max_frame}. *)

val read_frame : Unix.file_descr -> string
(** @raise Closed on EOF at a frame boundary or mid-frame.
    @raise Error on an oversized length prefix. *)
