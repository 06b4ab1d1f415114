(** Blocking client for the allocation daemon.

    One connection, one request in flight at a time.  The daemon
    pipelines nothing per connection, so concurrency comes from opening
    several clients — which is exactly what makes its cross-request
    batching observable. *)

type t

val connect : string -> t
(** Connect to a daemon socket path.
    @raise Unix.Unix_error if nobody is listening. *)

val connect_retry : ?attempts:int -> ?delay:float -> string -> t
(** [connect] with retries (default 100 attempts, 50 ms apart) — for
    racing a freshly forked daemon to its [bind]. *)

val close : t -> unit

(** {2 Requests}

    Each sends one request and blocks for its response.
    @raise Protocol.Closed if the daemon hangs up. *)

val alloc :
  t ->
  machine:Machine.t ->
  algo:string ->
  Protocol.wire_program ->
  (string list, string) result
(** Per-function reply blobs in program order, or the daemon's error
    message. *)

val alloc_encoded : t -> string -> (string list, string) result
(** [alloc] over a pre-encoded [Alloc] request payload
    ([Protocol.encode_request] output), so a load generator encodes once
    and replays many times. *)

val alloc_funcs :
  t ->
  machine:Machine.t ->
  algo:string ->
  Protocol.wire_program ->
  (Protocol.func_reply list, string) result
(** [alloc] with the blobs decoded. *)

val stats : t -> (Protocol.server_stats, string) result
val shutdown : t -> (unit, string) result
(** Acknowledged shutdown; the daemon exits after replying. *)
