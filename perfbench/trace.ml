(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around calls into the library's
   public functions; nothing inside the library is instrumented.  Each
   span keeps its layer, start and end (monotonic ns), the index of its
   parent span and the id of the function it belongs to.  Spans stay in
   memory until [write] at the end of the run.  When [enabled] is false,
   [span] is one branch and a call. *)

type layer =
  | Pipeline  (** root: one function through the whole traced path *)
  | Ssa_construct
  | Ssa_destruct
  | Lower
  | Pair_schedule
  | Alloc  (** one allocator call, or its phase-by-phase replay *)
  | Webs
  | Loops
  | Liveness
  | Igraph
  | Spill_cost
  | Coalesce
  | Simplify
  | Color_select
  | Spill_insert
  | Strength
  | Rpg
  | Cpg
  | Select
  | Finalize
  | Decode
  | Digest
  | Cache_find
  | Cache_add
  | Encode
  | Bench  (** the benchmark's own bookkeeping, excluded from every row *)

let layers =
  [
    Pipeline; Ssa_construct; Ssa_destruct; Lower; Pair_schedule; Alloc; Webs;
    Loops; Liveness; Igraph; Spill_cost; Coalesce; Simplify; Color_select;
    Spill_insert; Strength; Rpg; Cpg; Select; Finalize; Decode; Digest;
    Cache_find; Cache_add; Encode; Bench;
  ]

let n_layers = List.length layers
let layer_of_index = Array.of_list layers

let index l =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x == l then i else go (i + 1) rest
  in
  go 0 layers

(* The metric reporting each layer's self time.  The two roots' self
   times are the time no child span covers. *)
let name = function
  | Pipeline -> "pipeline.unattributed_ns"
  | Ssa_construct -> "ssa.construct_ns"
  | Ssa_destruct -> "ssa.destruct_ns"
  | Lower -> "target.lower_ns"
  | Pair_schedule -> "target.pair_schedule_ns"
  | Alloc -> "regalloc.unattributed_ns"
  | Webs -> "regalloc.webs_ns"
  | Loops -> "dataflow.loops_ns"
  | Liveness -> "dataflow.liveness_ns"
  | Igraph -> "regalloc.igraph_ns"
  | Spill_cost -> "regalloc.spill_cost_ns"
  | Coalesce -> "regalloc.coalesce_ns"
  | Simplify -> "regalloc.simplify_ns"
  | Color_select -> "regalloc.color_select_ns"
  | Spill_insert -> "regalloc.spill_insert_ns"
  | Strength -> "core.strength_ns"
  | Rpg -> "core.rpg_ns"
  | Cpg -> "core.cpg_ns"
  | Select -> "core.select_ns"
  | Finalize -> "sim.finalize_ns"
  | Decode -> "serve.decode_ns"
  | Digest -> "serve.digest_ns"
  | Cache_find -> "serve.cache_find_ns"
  | Cache_add -> "serve.cache_add_ns"
  | Encode -> "serve.encode_ns"
  | Bench -> "bench.bookkeeping_ns"

let now () = Int64.to_int (Monotonic_clock.now ())
let enabled = ref false

(* Span columns, grown by doubling.  Bigarrays, so the GC never scans
   them and a long traced run does not slow the code it measures. *)
type column = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let column n : column = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let cap = ref 0
let len = ref 0
let s_layer = ref (column 0)
let s_start = ref (column 0)
let s_stop = ref (column 0)
let s_parent = ref (column 0)
let s_fn = ref (column 0)
let current = ref (-1)
let fn_id = ref 0

let grow () =
  let n = max 4096 (2 * !cap) in
  let ext a =
    let b = column n in
    Bigarray.Array1.blit a (Bigarray.Array1.sub b 0 !cap);
    b
  in
  s_layer := ext !s_layer;
  s_start := ext !s_start;
  s_stop := ext !s_stop;
  s_parent := ext !s_parent;
  s_fn := ext !s_fn;
  cap := n

(* Spans recorded until the next [set_fn] belong to function [id]. *)
let set_fn id = fn_id := id

let span l f =
  if not !enabled then f ()
  else begin
    if !len = !cap then grow ();
    let i = !len in
    incr len;
    !s_layer.{i} <- index l;
    !s_parent.{i} <- !current;
    !s_fn.{i} <- !fn_id;
    let parent = !current in
    current := i;
    let finish () =
      !s_stop.{i} <- now ();
      current := parent
    in
    !s_start.{i} <- now ();
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Summed self time of every layer: each span's duration minus the
   durations of its direct children.  Children nest strictly inside
   their parent (they are calls made within it), so "the part its
   children cover" is the sum of their durations. *)
let self_times () =
  let self = Array.make n_layers 0 in
  for i = 0 to !len - 1 do
    let d = !s_stop.{i} - !s_start.{i} in
    let l = !s_layer.{i} in
    self.(l) <- self.(l) + d;
    let p = !s_parent.{i} in
    if p >= 0 then begin
      let pl = !s_layer.{p} in
      self.(pl) <- self.(pl) - d
    end
  done;
  List.map (fun l -> (l, self.(index l))) layers

(* Traced time of the measured functions: the root spans' durations,
   less the benchmark's bookkeeping recorded inside them. *)
let fn_total () =
  let root = ref 0 in
  for i = 0 to !len - 1 do
    if !s_parent.{i} < 0 then root := !root + (!s_stop.{i} - !s_start.{i})
  done;
  !root - List.assoc Bench (self_times ())

(* Inclusive time of the [Alloc] spans per function id, for the
   per-allocator rows. *)
let alloc_time_by_fn () =
  let t = Hashtbl.create 1024 in
  let li = index Alloc in
  for i = 0 to !len - 1 do
    if !s_layer.{i} = li then begin
      let fn = !s_fn.{i} in
      let d = !s_stop.{i} - !s_start.{i} in
      Hashtbl.replace t fn (d + Option.value ~default:0 (Hashtbl.find_opt t fn))
    end
  done;
  t

(* One line per span: function id, layer, start, end, parent index. *)
let write path =
  let oc = open_out path in
  output_string oc "# fn\tlayer\tstart_ns\tend_ns\tparent\n";
  for i = 0 to !len - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" !s_fn.{i}
      (name layer_of_index.(!s_layer.{i}))
      !s_start.{i} !s_stop.{i} !s_parent.{i}
  done;
  close_out oc
