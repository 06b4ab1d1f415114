(** The shared Chaitin-style allocation driver.

    Rounds of: renumber (webs) -> liveness -> interference graph ->
    color; registers that fail get spill code and the round restarts,
    until every node receives a register.  {!drive} owns that loop for
    every allocator, which supplies only its coloring step; {!allocate}
    is the step of the Chaitin/Briggs family (coalesce -> simplify ->
    select).

    Spill-code temporaries are tracked across rounds and protected from
    being spilled again. *)

type coalesce_kind = No_coalesce | Aggressive | Conservative

type config = {
  name : string;
  coalesce : coalesce_kind;
  mode : Simplify.mode;
  biased : bool;
  order : Color_select.order;
}

val config :
  name:string ->
  ?coalesce:coalesce_kind ->
  ?mode:Simplify.mode ->
  ?biased:bool ->
  ?order:Color_select.order ->
  unit ->
  config
(** Labeled constructor with the Briggs-style defaults ([Aggressive]
    coalescing, [Optimistic] simplification, unbiased,
    non-volatile-first).  Call sites built on it keep compiling when
    [config] grows a field, so prefer it to a record literal. *)

type result = {
  func : Cfg.func;
      (** final body: web-renamed, spill code inserted, still virtual *)
  alloc : Reg.t Reg.Tbl.t;  (** every virtual register -> its register *)
  rounds : int;
  spill_instrs : int;  (** spill stores + reloads inserted, static count *)
  spill_slots : (Reg.t * int) list;
      (** accumulated [Spill_insert] slot metadata across rounds (webs
          are named per round, so earlier entries may refer to since-
          renumbered registers); slots are globally unique within the
          function — the static verifier audits this *)
}

exception Failed of string
(** Raised when allocation cannot make progress (eg. a spill temporary
    itself fails to color), or the round budget is exhausted. *)

(** {2 Per-round analysis context}

    One round of any allocator runs the same analysis pipeline over the
    renumbered body.  [analyze] computes it once; round loops thread the
    record instead of re-deriving pieces (the loop forest in particular
    used to be recomputed inside spill-cost and strength estimation). *)

type analysis = {
  fn : Cfg.func;
  live : Liveness.t;
  graph : Igraph.t;
  costs : Spill_cost.t;
  loops : Loops.t;
}

val analyze : Cfg.func -> analysis

val remap_temps : Webs.t -> unit Reg.Tbl.t -> unit Reg.Tbl.t
(** Carry the spill-temporary set across a web renumbering: a web
    register is a temporary iff its origin was.  O(webs) — one hash
    probe per web. *)

val add_spill_temps : unit Reg.Tbl.t -> Spill_insert.result -> unit Reg.Tbl.t
(** Mark the temporaries the given spill insertion introduced (registers
    at or above its watermark) and return the same table. *)

(** {2 The round driver} *)

type 'x step =
  | Colored of (Reg.t -> Reg.t option) * 'x
      (** every virtual register of the round's body has the given
          color; ['x] is whatever else the allocator reports *)
  | Spill of Reg.Set.t  (** spill these registers and run another round *)

val drive :
  name:string ->
  ?rematerialize:bool ->
  Cfg.func ->
  (analysis -> temps:unit Reg.Tbl.t -> 'x step) ->
  result * 'x
(** [drive ~name f color] allocates a clone of [f] (the input is never
    mutated).  Each round renumbers the body into webs, carries the
    spill temporaries over ([temps], which [color] must not spill
    again), runs {!analyze} and hands the result to [color].  [Spill]
    inserts spill code ([rematerialize] as in {!Spill_insert.insert},
    default [false]) and starts the next round; [Colored] ends the
    allocation.
    @raise Failed ["<name>: too many rounds"] after 64 rounds, or
    ["<name>: <reg> left uncolored"] when [Colored]'s function misses a
    register. *)

val spill_clusters : Igraph.t -> Cfg.func -> Reg.Set.t -> Reg.Set.t
(** [spill_clusters g fn spilled] widens a set of spilled coalesce
    representatives to every register of [fn] merged into one of them
    in [g]: spilling a coalesced node spills its whole cluster. *)

val allocate : config -> Machine.t -> Cfg.func -> result

val check_complete : Machine.t -> result -> unit
(** Assert every virtual register of the body got a register of its
    class, distinct from its interfering neighbors.
    @raise Failed otherwise. *)

val choose_victim :
  Spill_cost.t -> Igraph.t -> no_spill:(Reg.t -> bool) -> Reg.t list -> Reg.t
(** The shared spill-victim heuristic: minimize Chaitin's cost/degree
    metric ({!Spill_cost.chaitin_metric}), the first candidate winning
    ties, and never choose a spill temporary while a real candidate
    remains; when only temporaries are blocked, take the one of highest
    degree.  Partially apply it once per round and pass the closure as
    the round's [spill_choice]: the closure builds the one-pass
    merged-cost table on its first call, so a round that never blocks
    pays nothing and each blocked step costs O(candidates).  The graph
    must not be merged after the first call. *)

val first_min : (Reg.t -> float) -> Reg.t list -> Reg.t * float
(** [first_min metric l] is the first element of [l] with the lowest
    [metric], with that metric; [metric] runs once per element.
    @raise Invalid_argument on an empty list. *)
