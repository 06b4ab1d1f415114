(** The allocation daemon.

    A single-threaded event loop over a Unix-domain socket.  Each
    wakeup drains every readable connection, decodes the complete
    frames that arrived, and dispatches {e all} pending allocation
    requests as one batch through a persistent {!Engine.Pool} — so
    concurrent clients share worker domains instead of queueing behind
    each other (cross-request batching).  Per-function results are
    served from a content-addressed {!Cache} keyed on
    (body digest, function name, machine config, allocator name); the
    cached unit is the encoded {!Protocol.func_reply} blob, which makes
    cached and uncached responses byte-identical by construction.
    In front of decode sits a second {!Cache} of the same capacity, keyed
    on the MD5 of the raw request payload and holding the cache keys
    that payload decoded to: a repeated request whose functions are
    all still cached is served without decoding, with the same
    counted lookups (so the same stats) and the same reply bytes.
    Replies on one connection go out in frame order, error replies
    included.

    Error handling: a malformed payload, an unknown allocator or an
    allocation failure is answered with [Error_reply] on the same
    connection, which stays open.  Only an unparseable frame header
    (length out of range) closes the connection: the frames before it
    are answered first, then the header gets its [Error_reply], then
    the connection closes.  A [Shutdown] request
    is acknowledged to its sender, every other pending request in the
    batch is still answered, and then the daemon exits. *)

type config = {
  socket_path : string;  (** bound at startup; a stale file is unlinked *)
  jobs : int;  (** requested pool size; capped by the host (see {!Engine.Pool}) *)
  cache_capacity : int;  (** bound in entries of both caches; [<= 0] = unbounded *)
}

val run : config -> unit
(** Bind, listen, serve until a [Shutdown] request, then tear down the
    socket and the worker pool.
    @raise Unix.Unix_error if the socket cannot be bound. *)
