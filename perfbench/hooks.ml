(* The traced path, as the workloads see it.  The gated executable has
   none; the traced executable supplies one built by [Replay] from the
   libraries' fine-grained public phase functions, so a change to those
   can break only the traced build, never the gated measurement. *)

type counts = {
  allocations : int;
  rounds : int;
  spilled_ranges : int;
  cpg_edges : int;
  prefs_honored : int;
  prefs_offered : int;
}

type t = {
  compile : Allocator.t -> Machine.t -> Cfg.func -> Alloc_common.result * Finalize.t;
      (** prepare, allocate and finalize one function, a span per stage;
          the caller clones the function if it must stay unchanged *)
  new_server : capacity:int -> traced:bool -> string -> string;
      (** a fresh in-process copy of the daemon's per-request path and
          its cache: request payload to response payload *)
  reset_counts : unit -> unit;
  counts : unit -> counts;  (** exact counts since the last reset *)
}
