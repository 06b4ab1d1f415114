(** Allocate-request payloads and the one-shot reference replies, the
    two helpers perfbench's daemon workload and the [@serve-smoke]
    checks ([test/serve_smoke.ml]) share. *)

val encode_requests :
  machine:Machine.t -> algo:string -> Cfg.program list -> string list
(** Serialize each program into one binary-IR [Alloc] request payload. *)

val one_shot_blobs :
  machine:Machine.t -> algo:Allocator.t -> Cfg.program -> string list
(** The per-function reply blobs the one-shot pipeline
    ([Pipeline.allocate_program] over [Pipeline.prepare]) produces —
    the reference the daemon must match byte for byte. *)
