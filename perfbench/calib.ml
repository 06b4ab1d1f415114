(* Host-speed normalisation of measured times.

   The shared host this benchmark runs on drifts between speed regimes
   that last seconds to minutes and differ by up to ~40%, far more than
   any change worth detecting.  A fixed reference computation, defined
   here so that no change to the repository's libraries can speed it
   up, is timed every [interval_ns] of measurement; a time measured at
   [t] is scaled by [nominal_ns / R], with R the median of the five
   reference times taken nearest to [t].  A normalised time reads as the
   time the work would have taken on a host that runs the reference in
   [nominal_ns].

   The reference runs in a small worker process of its own, pinned by
   the caller to the CPU whose speed the measurement depends on.  Run
   in the measuring process it would also time that process's garbage
   collector, which works harder the more the measured code keeps live,
   so a change to the measured code would move the reference.  Each
   workload makes one run of measurements, so the series is global. *)

let interval_ns = 200_000_000

type series = {
  nominal_ns : float;
  run : unit -> unit;
  mutable at : int array;  (** when each reference ended *)
  mutable took : int array;  (** what it took, ns *)
  mutable count : int;
}

let nominal_ns = 10_000_000.

(* Allocation-heavy, pointer-chasing OCaml, like the allocator itself:
   a balanced-tree map, a hash table and a list sort. *)
let compute_reference () =
  let module M = Map.Make (Int) in
  let m = ref M.empty in
  for i = 0 to 20_000 do
    m := M.add ((i * 7919) land 0xffff) i !m
  done;
  let h = Hashtbl.create 1024 in
  M.iter (fun k v -> Hashtbl.replace h (k lxor v) (string_of_int v)) !m;
  let l = Hashtbl.fold (fun k _ acc -> k :: acc) h [] in
  ignore (Sys.opaque_identity (List.length (List.sort compare l)))

let measure s =
  let t0 = Trace.now () in
  s.run ();
  let t1 = Trace.now () in
  if s.count = Array.length s.at then begin
    let grow a = Array.append a (Array.make (max 64 s.count) 0) in
    s.at <- grow s.at;
    s.took <- grow s.took
  end;
  s.at.(s.count) <- t1;
  s.took.(s.count) <- t1 - t0;
  s.count <- s.count + 1

(* Time the reference if [interval_ns] has passed since it was last
   timed. *)
let tick s =
  if s.count = 0 || Trace.now () - s.at.(s.count - 1) >= interval_ns then measure s

(* The scale factor for a time measured at [t]. *)
let factor s t =
  let n = s.count in
  if n = 0 then 1.
  else begin
    (* first reference at or after t *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if s.at.(mid) < t then lo := mid + 1 else hi := mid
    done;
    let l = ref (!lo - 1) and r = ref !lo and near = ref [] in
    for _ = 1 to min 5 n do
      if !r >= n || (!l >= 0 && t - s.at.(!l) <= s.at.(!r) - t) then begin
        near := float_of_int s.took.(!l) :: !near;
        decr l
      end
      else begin
        near := float_of_int s.took.(!r) :: !near;
        incr r
      end
    done;
    s.nominal_ns /. Stats.median_list !near
  end

(* [ns] measured starting at [t], normalised. *)
let scale s t ns = float_of_int ns *. factor s t

(* Median raw reference time in ms, and the number of references. *)
let summary s =
  ( (if s.count = 0 then 0.
     else Stats.median (Array.init s.count (fun i -> float_of_int s.took.(i))) /. 1e6),
    s.count )

(* The worker that runs the reference on request, and the series timing
   the reference through it.  Forced first thing in [Cli.main], so the
   worker is forked while this process's heap is still nearly empty:
   the reference's own garbage collection then does not depend on
   anything the benchmark generates. *)
let worker =
  lazy
    (let w = Proc.worker compute_reference in
     (w.Proc.pid, { nominal_ns; run = w.Proc.ask; at = [||]; took = [||]; count = 0 }))

(* Pin the reference worker to [worker_cpu] and this process to
   [own_cpu] while [f] runs; [f] gets the reference series. *)
let with_pinned ~worker_cpu ~own_cpu f =
  let pid, series = Lazy.force worker in
  let allowed = Proc.cpus_allowed () in
  Proc.pin pid worker_cpu;
  Proc.pin (Unix.getpid ()) own_cpu;
  Fun.protect
    ~finally:(fun () ->
      Proc.pin pid allowed;
      Proc.pin (Unix.getpid ()) allowed)
    (fun () -> f series)
