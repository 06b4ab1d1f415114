(* Shared test utilities. *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let reg_testable : Reg.t Alcotest.testable =
  Alcotest.testable Reg.pp Reg.equal

let reg_set_testable : Reg.Set.t Alcotest.testable =
  Alcotest.testable
    (fun ppf s ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           Reg.pp)
        (Reg.Set.elements s))
    Reg.Set.equal

(* One allocation round's analyses of [fn] over one loop forest and one
   register numbering, as [Alloc_common.drive] hands them to a coloring
   step. *)
let analyze fn = Alloc_common.analyze ~loops:(Loops.compute fn) fn

(* [fn]'s preference strengths and RPG over that round, as [Pdgc] builds
   them. *)
let build_rpg ?kinds m fn =
  let a = analyze fn in
  let str = Strength.of_analysis a in
  (str, Rpg.build ?kinds ~cpt:(Igraph.compact a.Alloc_common.graph) m fn str)

(* Registers live into a block, as a set. *)
let live_in live l =
  Regbits.Set.to_reg_set (Liveness.compact live) (Liveness.live_in_bits live l)

(* A straight-line function: r = (a + b) * a; ret r. *)
let straightline () =
  let b = Builder.create ~name:"straight" ~n_params:2 in
  let a = Builder.reg b Reg.Int_class in
  let c = Builder.reg b Reg.Int_class in
  Builder.param b a 0;
  Builder.param b c 1;
  let s = Builder.binop b Instr.Add a c in
  let r = Builder.binop b Instr.Mul s a in
  Builder.ret b (Some r);
  (Builder.finish b, a, c, s, r)

(* A diamond: x = p0; if p0 < p1 then x = p0 + 1 else x = p1 + 2; ret x. *)
let diamond () =
  let b = Builder.create ~name:"diamond" ~n_params:2 in
  let p0 = Builder.reg b Reg.Int_class in
  let p1 = Builder.reg b Reg.Int_class in
  Builder.param b p0 0;
  Builder.param b p1 1;
  let x = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:x ~src:p0;
  let c = Builder.cmp b Instr.Lt p0 p1 in
  let t = Builder.new_block b in
  let f = Builder.new_block b in
  let j = Builder.new_block b in
  Builder.branch b c ~ifso:t ~ifnot:f;
  Builder.switch_to b t;
  let one = Builder.iconst b 1 in
  Builder.emit b (Instr.Binop { op = Instr.Add; dst = x; src1 = p0; src2 = one });
  Builder.jump b j;
  Builder.switch_to b f;
  let two = Builder.iconst b 2 in
  Builder.emit b (Instr.Binop { op = Instr.Add; dst = x; src1 = p1; src2 = two });
  Builder.jump b j;
  Builder.switch_to b j;
  Builder.ret b (Some x);
  (Builder.finish b, p0, p1, x)

(* A counted loop: acc = 0; for i = 0..n-1 do acc += i done; ret acc. *)
let counted_loop ?(trip = 5) () =
  let b = Builder.create ~name:"loop" ~n_params:0 in
  let n = Builder.iconst b trip in
  let acc = Builder.iconst b 0 in
  let i = Builder.iconst b 0 in
  let header = Builder.new_block b in
  let body = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.jump b header;
  Builder.switch_to b header;
  let c = Builder.cmp b Instr.Lt i n in
  Builder.branch b c ~ifso:body ~ifnot:exit;
  Builder.switch_to b body;
  Builder.emit b (Instr.Binop { op = Instr.Add; dst = acc; src1 = acc; src2 = i });
  let one = Builder.iconst b 1 in
  Builder.emit b (Instr.Binop { op = Instr.Add; dst = i; src1 = i; src2 = one });
  Builder.jump b header;
  Builder.switch_to b exit;
  Builder.ret b (Some acc);
  (Builder.finish b, acc, i, header, body, exit)

(* A randomized workload profile for property tests. *)
let random_profile rng =
  {
    Gen.name = Printf.sprintf "rand%d" (Rng.int rng 100000);
    seed = Rng.int rng 1_000_000;
    n_funcs = Rng.range rng 1 4;
    blocks = (1, Rng.range rng 2 5);
    stmts = (1, Rng.range rng 2 6);
    max_loop_depth = Rng.range rng 0 2;
    call_density = float_of_int (Rng.int rng 30) /. 100.0;
    float_ratio = float_of_int (Rng.int rng 50) /. 100.0;
    paired_ratio = float_of_int (Rng.int rng 30) /. 100.0;
    limited_ratio = float_of_int (Rng.int rng 15) /. 100.0;
    pressure = Rng.range rng 3 18;
  }

(* Deterministic random programs for property tests. *)
let random_program seed = Gen.generate (random_profile (Rng.create seed))

(* The seven allocators of the paper's evaluation: the registry less
   priority-based coloring, which omits Chow's live-range splitting and
   so is exercised only at moderate pressure, not in the low-k stress
   tests. *)
let paper_algos =
  List.filter (fun a -> a != Pipeline.priority_based) Pipeline.all_algos

(* Every allocatable register of a class, in index order. *)
let file_regs m cls = List.init m.Machine.k (Reg.phys cls)

(* Current neighbors of a node's representative, as a set. *)
let adj g r =
  Igraph.fold_adj g r ~init:Reg.Set.empty ~f:(fun s n -> Reg.Set.add n s)

(* Registers live out of a block: the backward walk's set after its
   terminator. *)
let live_out live (b : Cfg.block) =
  Liveness.fold_block_backward live b ~init:None ~f:(fun acc ~live_out _ ->
      if acc = None then Some live_out else acc)
  |> Option.get

(* The CPG is acyclic: Kahn's algorithm over its edges visits every
   node. *)
let cpg_acyclic cpg =
  let pending = Reg.Tbl.create 64 and q = Queue.create () in
  List.iter
    (fun r ->
      let n = List.length (Cpg.preds cpg r) in
      Reg.Tbl.replace pending r n;
      if n = 0 then Queue.add r q)
    (Cpg.nodes cpg);
  let visited = ref 0 in
  while not (Queue.is_empty q) do
    incr visited;
    List.iter
      (fun s ->
        let p = Reg.Tbl.find pending s - 1 in
        Reg.Tbl.replace pending s p;
        if p = 0 then Queue.add s q)
      (Cpg.succs cpg (Queue.pop q))
  done;
  !visited = List.length (Cpg.nodes cpg)

(* Reference implementations of liveness and interference-graph
   construction, kept verbatim from the seed's functional Reg.Set code.
   The dense-bitset production versions are property-tested against
   these oracles (test_dataflow, test_igraph). *)
module Ref_live = struct
  module Fact = struct
    type t = Reg.Set.t

    let bottom = Reg.Set.empty
    let equal = Reg.Set.equal
    let join = Reg.Set.union
  end

  module S = Solver.Make (Fact)

  type t = {
    result : Reg.Set.t Solver.result;
    phi_outflow : (Instr.label, Reg.Set.t) Hashtbl.t;
  }

  let phi_outflow (f : Cfg.func) =
    let tbl = Hashtbl.create 16 in
    Cfg.iter_instrs f (fun _ i ->
        List.iter
          (fun (pred, r) ->
            let cur =
              try Hashtbl.find tbl pred with Not_found -> Reg.Set.empty
            in
            Hashtbl.replace tbl pred (Reg.Set.add r cur))
          (Instr.phi_srcs i.Instr.kind));
    tbl

  let transfer_instr live i =
    let kind = i.Instr.kind in
    let live =
      List.fold_left (fun s r -> Reg.Set.remove r s) live (Instr.defs kind)
    in
    match kind with
    | Instr.Phi _ -> live
    | _ -> List.fold_left (fun s r -> Reg.Set.add r s) live (Instr.uses kind)

  let compute (f : Cfg.func) =
    let outflow = phi_outflow f in
    let transfer (b : Cfg.block) live_out =
      let live_out =
        match Hashtbl.find_opt outflow b.Cfg.label with
        | Some extra -> Reg.Set.union live_out extra
        | None -> live_out
      in
      List.fold_left transfer_instr live_out
        (List.rev (Array.to_list b.Cfg.instrs))
    in
    let result = S.solve ~direction:Solver.Backward ~transfer f in
    { result; phi_outflow = outflow }

  let live_out t l =
    let base = Solver.input t.result l in
    match Hashtbl.find_opt t.phi_outflow l with
    | Some extra -> Reg.Set.union base extra
    | None -> base

  let live_in t l = Solver.output t.result l

  let fold_block_backward t (b : Cfg.block) ~init ~f =
    let live = ref (live_out t b.Cfg.label) in
    List.fold_left
      (fun acc i ->
        let acc = f acc ~live_out:!live i in
        live := transfer_instr !live i;
        acc)
      init (List.rev (Array.to_list b.Cfg.instrs))
end

(* Reference dominance and loop facts, straight from the definitions,
   over the blocks reachable from the entry:
   - dominator sets by the iterative set-intersection fixpoint;
   - the immediate dominator as the strict dominator that every other
     strict dominator of the block dominates;
   - the frontier of [a] as the blocks [y] with a predecessor [a]
     dominates while [a] does not strictly dominate [y];
   - one natural loop per back edge [n -> h] ([h] dominates [n]): [h]
     and every block reaching [n] without passing through [h]; a
     block's depth is the number of those loops holding it.
   Edges are counted with multiplicity, as successor lists give them.
   The label-indexed [Dominance] and [Loops] are checked against it
   (test_dataflow). *)
module Ref_dom = struct
  module S = Set.Make (Int)
  module M = Map.Make (Int)

  type t = {
    entry : Instr.label;
    reachable : S.t;
    edges : (Instr.label * Instr.label) list;  (* reachable sources *)
    doms : S.t M.t;
    loops : (Instr.label * S.t) list;  (* header, body *)
  }

  let succs (fn : Cfg.func) l =
    match List.find_opt (fun b -> b.Cfg.label = l) fn.Cfg.blocks with
    | Some b -> Cfg.successors b
    | None -> []

  let compute (fn : Cfg.func) =
    let entry = fn.Cfg.entry in
    let rec visit seen l =
      if S.mem l seen then seen else List.fold_left visit (S.add l seen) (succs fn l)
    in
    let reachable = visit S.empty entry in
    let edges =
      List.concat_map
        (fun n -> List.map (fun s -> (n, s)) (succs fn n))
        (S.elements reachable)
    in
    let preds l = List.filter_map (fun (n, s) -> if s = l then Some n else None) edges in
    let step doms =
      M.mapi
        (fun l d ->
          if l = entry then d
          else
            match preds l with
            | [] -> d
            | p :: ps ->
                S.add l
                  (List.fold_left
                     (fun acc q -> S.inter acc (M.find q doms))
                     (M.find p doms) ps))
        doms
    in
    let rec fix doms =
      let doms' = step doms in
      if M.equal S.equal doms doms' then doms else fix doms'
    in
    let init =
      S.fold
        (fun l m -> M.add l (if l = entry then S.singleton entry else reachable) m)
        reachable M.empty
    in
    let doms = fix init in
    let dominates a b = S.mem a (M.find b doms) in
    let rec pull body m =
      if S.mem m body then body else List.fold_left pull (S.add m body) (preds m)
    in
    let loops =
      List.filter_map
        (fun (n, h) ->
          if dominates h n then Some (h, pull (S.singleton h) n) else None)
        edges
    in
    { entry; reachable; edges; doms; loops }

  let labels t = S.elements t.reachable
  let dominates t a b = S.mem a (M.find b t.doms)

  let idom t l =
    if l = t.entry then None
    else
      let strict = S.remove l (M.find l t.doms) in
      match S.elements (S.filter (fun d -> S.subset strict (M.find d t.doms)) strict) with
      | [ d ] -> Some d
      | _ -> invalid_arg (Printf.sprintf "Ref_dom.idom: L%d" l)

  let children t a = List.filter (fun l -> idom t l = Some a) (labels t)

  let frontier t a =
    List.filter
      (fun y ->
        List.exists (fun (p, s) -> s = y && dominates t a p) t.edges
        && not (a <> y && dominates t a y))
      (labels t)

  let depth t l =
    List.length (List.filter (fun (_, body) -> S.mem l body) t.loops)

  let headers t = List.sort_uniq compare (List.map fst t.loops)
end

module Ref_igraph = struct
  (* [rank]: each register's first-occurrence rank in the body
     (definitions before uses, instructions in block order), which is
     its index in the liveness numbering.  The dense graph lists every
     node's neighbors in that order, since Simplify, the CPG and select
     walk them in the order listed. *)
  type t = {
    adj_tbl : Reg.Set.t ref Reg.Tbl.t;
    rank : Reg.t -> int;
    mutable move_list : (int * Reg.t * Reg.t) list;
  }

  let adj_cell t r =
    match Reg.Tbl.find_opt t.adj_tbl r with
    | Some c -> c
    | None ->
        let c = ref Reg.Set.empty in
        Reg.Tbl.replace t.adj_tbl r c;
        c

  let add_edge fn t a b =
    if (not (Reg.equal a b)) && Cfg.cls_of fn a = Cfg.cls_of fn b then
      if not (Reg.is_phys a && Reg.is_phys b) then begin
        let ca = adj_cell t a and cb = adj_cell t b in
        ca := Reg.Set.add b !ca;
        cb := Reg.Set.add a !cb
      end

  (* Neighbors of [r] in first-occurrence rank. *)
  let adj_sequence t r =
    match Reg.Tbl.find_opt t.adj_tbl r with
    | Some c ->
        List.sort
          (fun x y -> compare (t.rank x) (t.rank y))
          (Reg.Set.elements !c)
    | None -> []

  let first_occurrence (fn : Cfg.func) =
    let rank = Reg.Tbl.create 256 in
    let see r =
      if not (Reg.Tbl.mem rank r) then
        Reg.Tbl.replace rank r (Reg.Tbl.length rank)
    in
    Cfg.iter_instrs fn (fun _ i ->
        List.iter see (Instr.defs i.Instr.kind);
        List.iter see (Instr.uses i.Instr.kind));
    fun r -> Reg.Tbl.find rank r

  let build (fn : Cfg.func) (live : Ref_live.t) =
    let t =
      {
        adj_tbl = Reg.Tbl.create 256;
        rank = first_occurrence fn;
        move_list = [];
      }
    in
    List.iter
      (fun b ->
        ignore
          (Ref_live.fold_block_backward live b ~init:()
             ~f:(fun () ~live_out i ->
               let kind = i.Instr.kind in
               List.iter (fun r -> ignore (adj_cell t r)) (Instr.defs kind);
               List.iter (fun r -> ignore (adj_cell t r)) (Instr.uses kind);
               (match kind with
               | Instr.Move { dst; src }
                 when (not (Reg.equal dst src))
                      && Cfg.cls_of fn dst = Cfg.cls_of fn src ->
                   t.move_list <- (i.Instr.id, dst, src) :: t.move_list
               | _ -> ());
               let exempt =
                 match kind with
                 | Instr.Move { src; _ } -> Some src
                 | _ -> None
               in
               List.iter
                 (fun d ->
                   Reg.Set.iter
                     (fun l -> if exempt <> Some l then add_edge fn t d l)
                     live_out)
                 (Instr.defs kind))))
      fn.Cfg.blocks;
    t
end

(* Reference merged spill cost: the per-representative scan that
   [Spill_cost.merged_spill_costs]' one-pass table replaced.  Every
   query walks all registers of the function and sums those whose merge
   representative is the queried register's (test_spill). *)
module Ref_merged_cost = struct
  let cost costs g (fn : Cfg.func) =
    let vregs = Cfg.all_vregs fn in
    fun r ->
      let rep = Igraph.alias g r in
      Reg.Set.fold
        (fun w acc ->
          if Reg.equal (Igraph.alias g w) rep then
            acc + Spill_cost.spill_cost costs w
          else acc)
        vregs 0
end

(* [f] with every virtual register id moved up by [offset]: the ids'
   relative order is kept, so every first-appearance numbering and
   id-sorted order is too, and fresh names still come after all
   existing ones.  Only the ids' hashes change. *)
let shift_vregs offset (f : Cfg.func) =
  let shift r = if Reg.is_virtual r then r + offset else r in
  let reg_cls = Cfg.Classes.create (Cfg.Classes.length f.Cfg.reg_cls) in
  Cfg.Classes.fold
    (fun r c () -> Cfg.Classes.add reg_cls (shift r) c)
    f.Cfg.reg_cls ();
  Cfg.map_instrs
    { (Cfg.clone f) with Cfg.reg_cls; next_reg = f.Cfg.next_reg + offset }
    (fun i -> Instr.map_regs shift i.Instr.kind)

let body_text (f : Cfg.func) =
  Format.asprintf "%a" (Format.pp_print_list Cfg.pp_block) f.Cfg.blocks

let prepared_random_program ?(m = Machine.middle_pressure) seed =
  Pipeline.prepare m (random_program seed)

(* Semantic-equivalence oracle: allocated code must compute the same
   value as the virtual code. *)
let assert_semantics_preserved ?(m = Machine.middle_pressure) name algo seed =
  let prepared = prepared_random_program ~m seed in
  let before = Interp.run prepared in
  let a = Pipeline.allocate_program algo m prepared in
  let after = Interp.run ~machine:m a.Pipeline.program in
  if not (Interp.equal_value before.Interp.value after.Interp.value) then
    Alcotest.failf "%s: seed %d changed the program's result" name seed

(* [sub] occurs in [s]. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The codec's buffer and cursor entry points over whole strings:
   [to_wire Codec.write_func f], [of_wire Codec.read_func s]. *)
let to_wire write v =
  let buf = Buffer.create 1024 in
  write buf v;
  Buffer.contents buf

let of_wire read s = read (Codec.reader s)

(* Allocation validity on one function, by the production path:
   finalize it and run the static verifier; any error fails. *)
let assert_valid_allocation m (res : Alloc_common.result) =
  let final = (Finalize.apply m res).Finalize.func in
  match Diagnostic.errors (Verify.result m res ~final) with
  | [] -> ()
  | ds -> Alcotest.failf "invalid allocation:@.%a" Diagnostic.report ds

let qcheck ?(count = 50) ?print name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ?print gen prop)

let seed_gen = QCheck2.Gen.int_range 0 100_000

(* Reference implementations of the PDGC core (preference graph,
   coloring-precedence graph, integrated select), kept verbatim from
   the seed's Reg.Set / Reg.Tbl code (printers dropped).  The dense
   array-backed production versions are property-tested bit-for-bit
   against these oracles (test_pdgc_oracle). *)
module Ref_rpg = struct
  type ptype =
    | Coalesce of Reg.t
    | Seq_plus of Reg.t
    | Seq_minus of Reg.t
    | Kind
    | In_limited
    | Memory

  type pref = { target : ptype; weight : Strength.weight; instr_id : int option }

  type t = {
    out_edges : pref list Reg.Tbl.t;
    in_edges : (Reg.t * pref) list Reg.Tbl.t;
    pair_list : (int * Reg.t * Reg.t) list;
    str : Strength.t;
  }

  let strength _str p =
    match p.target with
    | Memory -> Strength.best p.weight (* stored as {s; s} *)
    | Coalesce _ | Seq_plus _ | Seq_minus _ | Kind | In_limited ->
        Strength.best p.weight

  let prefs t r =
    match Reg.Tbl.find_opt t.out_edges r with
    | Some ps ->
        List.sort (fun a b -> compare (strength t.str b) (strength t.str a)) ps
    | None -> []

  let incoming t r =
    match Reg.Tbl.find_opt t.in_edges r with Some l -> l | None -> []

  let pairs t = t.pair_list

  let paired_candidates (fn : Cfg.func) =
    let word = 8 in
    let rec scan acc = function
      | ({ Instr.kind = Instr.Load l1; _ } as i1)
        :: ({ Instr.kind = Instr.Load l2; _ } as i2)
        :: rest
        when Reg.equal l1.base l2.base
             && l2.offset = l1.offset + word
             && (not (Reg.equal l1.dst l2.dst))
             && (not (Reg.equal l1.dst l1.base))
             && Cfg.cls_of fn l1.dst = Cfg.cls_of fn l2.dst ->
          scan ((i1, i2) :: acc) rest
      | _ :: rest -> scan acc rest
      | [] -> acc
    in
    List.concat_map
      (fun (b : Cfg.block) -> scan [] (Array.to_list b.Cfg.instrs))
      fn.Cfg.blocks

  let build ?(kinds = `All) (_m : Machine.t) (fn : Cfg.func) (str : Strength.t)
      =
    let out_edges = Reg.Tbl.create 128 in
    let in_edges = Reg.Tbl.create 128 in
    let add_out r p =
      if Reg.is_virtual r then begin
        let cur = try Reg.Tbl.find out_edges r with Not_found -> [] in
        Reg.Tbl.replace out_edges r (p :: cur)
      end
    in
    let add_in target src p =
      if Reg.is_virtual target then begin
        let cur = try Reg.Tbl.find in_edges target with Not_found -> [] in
        Reg.Tbl.replace in_edges target ((src, p) :: cur)
      end
    in
    Cfg.iter_instrs fn (fun _ i ->
        match i.Instr.kind with
        | Instr.Move { dst; src }
          when (not (Reg.equal dst src))
               && Cfg.cls_of fn dst = Cfg.cls_of fn src ->
            let edge v target =
              let p =
                {
                  target = Coalesce target;
                  weight = Strength.coalesce str v ~instr_id:i.Instr.id;
                  instr_id = Some i.Instr.id;
                }
              in
              add_out v p;
              add_in target v p
            in
            edge dst src;
            edge src dst
        | _ -> ());
    let pair_list = ref [] in
    if kinds = `All then begin
      List.iter
        (fun (lo, hi) ->
          let lo_dst =
            match lo.Instr.kind with
            | Instr.Load { dst; _ } -> dst
            | _ -> assert false
          and hi_dst =
            match hi.Instr.kind with
            | Instr.Load { dst; _ } -> dst
            | _ -> assert false
          in
          pair_list := (hi.Instr.id, lo_dst, hi_dst) :: !pair_list;
          let p_hi =
            {
              target = Seq_plus lo_dst;
              weight = Strength.sequential str hi_dst ~instr_id:hi.Instr.id;
              instr_id = Some hi.Instr.id;
            }
          in
          add_out hi_dst p_hi;
          add_in lo_dst hi_dst p_hi;
          let p_lo =
            {
              target = Seq_minus hi_dst;
              weight = Strength.sequential str lo_dst ~instr_id:hi.Instr.id;
              instr_id = Some hi.Instr.id;
            }
          in
          add_out lo_dst p_lo;
          add_in hi_dst lo_dst p_lo)
        (paired_candidates fn);
      Cfg.iter_instrs fn (fun _ i ->
          match i.Instr.kind with
          | Instr.Limited { dst; _ } ->
              add_out dst
                {
                  target = In_limited;
                  weight = Strength.limited str dst ~instr_id:i.Instr.id;
                  instr_id = Some i.Instr.id;
                }
          | _ -> ());
      Reg.Set.iter
        (fun r ->
          add_out r
            { target = Kind; weight = Strength.volatility str r; instr_id = None };
          let mem = Strength.memory str r in
          if mem > 0 then
            add_out r
              {
                target = Memory;
                weight = { Strength.vol = mem; nonvol = mem };
                instr_id = None;
              })
        (Cfg.all_vregs fn)
    end;
    { out_edges; in_edges; pair_list = !pair_list; str }
end

module Ref_cpg = struct
  type t = {
    succ_tbl : Reg.Set.t ref Reg.Tbl.t;
    pred_tbl : Reg.Set.t ref Reg.Tbl.t;
    mutable initial_nodes : Reg.t list;
    pending : int Reg.Tbl.t; (* unresolved predecessor count *)
    all : Reg.t list;
  }

  let cell tbl r =
    match Reg.Tbl.find_opt tbl r with
    | Some c -> c
    | None ->
        let c = ref Reg.Set.empty in
        Reg.Tbl.replace tbl r c;
        c

  let set_of tbl r =
    match Reg.Tbl.find_opt tbl r with Some c -> !c | None -> Reg.Set.empty

  let succs t r = Reg.Set.elements (set_of t.succ_tbl r)
  let preds t r = Reg.Set.elements (set_of t.pred_tbl r)
  let nodes t = t.all
  let initial t = t.initial_nodes

  let n_edges t =
    Reg.Tbl.fold (fun _ c acc -> acc + Reg.Set.cardinal !c) t.succ_tbl 0

  let reachable t src target =
    let seen = Reg.Tbl.create 16 in
    let rec go r =
      Reg.equal r target
      || (not (Reg.Tbl.mem seen r))
         && begin
              Reg.Tbl.replace seen r ();
              Reg.Set.exists go (set_of t.succ_tbl r)
            end
    in
    Reg.equal src target || Reg.Set.exists go (set_of t.succ_tbl src)

  let add_edge t u v =
    let su = cell t.succ_tbl u and pv = cell t.pred_tbl v in
    su := Reg.Set.add v !su;
    pv := Reg.Set.add u !pv

  let remove_edge t u v =
    let su = cell t.succ_tbl u and pv = cell t.pred_tbl v in
    su := Reg.Set.remove v !su;
    pv := Reg.Set.remove u !pv

  let build ~k g (simp : Simplify.result) =
    let order = Simplify.removal_order simp in
    let t =
      {
        succ_tbl = Reg.Tbl.create 64;
        pred_tbl = Reg.Tbl.create 64;
        initial_nodes = [];
        pending = Reg.Tbl.create 64;
        all = order;
      }
    in
    let wig_adj r =
      Igraph.fold_adj g r ~init:Reg.Set.empty ~f:(fun acc n ->
          if Reg.is_virtual n then Reg.Set.add n acc else acc)
    in
    let present = Reg.Tbl.create 64 in
    let degree = Reg.Tbl.create 64 in
    let ready = Reg.Tbl.create 64 in
    (* Residual degree starts at the full interference degree, exactly
       as [Simplify.run] initializes it: physical neighbors never pop,
       so their contribution is a permanent constraint. *)
    List.iter
      (fun r ->
        Reg.Tbl.replace present r ();
        Reg.Tbl.replace degree r (Igraph.degree g r))
      order;
    List.iter
      (fun r -> if Reg.Tbl.find degree r < k then Reg.Tbl.replace ready r ())
      order;
    List.iter
      (fun n ->
        Reg.Tbl.remove present n;
        let neighbors =
          Reg.Set.filter (fun x -> Reg.Tbl.mem present x) (wig_adj n)
        in
        let non_ready =
          Reg.Set.filter (fun x -> not (Reg.Tbl.mem ready x)) neighbors
        in
        Reg.Set.iter
          (fun u ->
            if not (reachable t u n) then begin
              add_edge t u n;
              Reg.Set.iter
                (fun m ->
                  if (not (Reg.equal m n)) && reachable t n m then
                    remove_edge t u m)
                (set_of t.succ_tbl u)
            end)
          non_ready;
        Reg.Set.iter
          (fun x ->
            let d = Reg.Tbl.find degree x - 1 in
            Reg.Tbl.replace degree x d;
            if d < k then Reg.Tbl.replace ready x ())
          neighbors)
      order;
    List.iter
      (fun r ->
        let np = Reg.Set.cardinal (set_of t.pred_tbl r) in
        Reg.Tbl.replace t.pending r np;
        if np = 0 then t.initial_nodes <- r :: t.initial_nodes)
      order;
    t

  let of_total_order order =
    let t =
      {
        succ_tbl = Reg.Tbl.create 64;
        pred_tbl = Reg.Tbl.create 64;
        initial_nodes = [];
        pending = Reg.Tbl.create 64;
        all = order;
      }
    in
    let rec chain = function
      | a :: (b :: _ as rest) ->
          add_edge t a b;
          chain rest
      | [ _ ] | [] -> ()
    in
    chain order;
    List.iter
      (fun r ->
        let np = Reg.Set.cardinal (set_of t.pred_tbl r) in
        Reg.Tbl.replace t.pending r np;
        if np = 0 then t.initial_nodes <- r :: t.initial_nodes)
      order;
    t

  (* Only the resolution state changes after [build]. *)
  let copy t = { t with pending = Reg.Tbl.copy t.pending }

  let resolve t r =
    Reg.Set.fold
      (fun s acc ->
        let p = Reg.Tbl.find t.pending s - 1 in
        Reg.Tbl.replace t.pending s p;
        if p = 0 then s :: acc else acc)
      (set_of t.succ_tbl r) []
end

module Ref_select = struct
  type policy = Differential | Strongest | Fifo
  
  type stats = {
    honored_coalesce : int;
    honored_sequential : int;
    honored_kind : int;
    honored_limited : int;
    active_spills : int;
  }
  
  type outcome = {
    colors : Reg.t Reg.Tbl.t;
    spilled : Reg.Set.t;
    stats : stats;
  }
  
  (* Resolution of one preference against the current allocation state. *)
  type resolved =
    | Screen of Reg.Set.t (* honorable via any of these registers *)
    | Defer (* target live range not allocated yet *)
    | Want_memory
    | Dead (* cannot be honored anymore *)
  
  let run (m : Machine.t) g (rpg : Ref_rpg.t) (cpg : Ref_cpg.t) (str : Strength.t)
      ~no_spill ~spill_risk ~policy ~fallback_nonvolatile_first =
    let colors : Reg.t Reg.Tbl.t = Reg.Tbl.create 64 in
    let spilled = ref Reg.Set.empty in
    let stats =
      ref
        {
          honored_coalesce = 0;
          honored_sequential = 0;
          honored_kind = 0;
          honored_limited = 0;
          active_spills = 0;
        }
    in
    let color_of r = if Reg.is_phys r then Some r else Reg.Tbl.find_opt colors r in
    let available n =
      let forbidden =
        Igraph.fold_adj g n ~init:Reg.Set.empty ~f:(fun acc nb ->
            match color_of nb with
            | Some c -> Reg.Set.add c acc
            | None -> acc)
      in
      file_regs m (Igraph.cls g n)
      |> List.filter (fun c -> not (Reg.Set.mem c forbidden))
      |> Reg.Set.of_list
    in
    let shifted c delta =
      let idx = Reg.phys_index c + delta in
      if idx < 0 || idx >= m.Machine.k then None
      else Some (Reg.phys (Reg.phys_cls c) idx)
    in
    let kind_set cls volatile =
      file_regs m cls
      |> List.filter (fun c -> Machine.is_volatile m c = volatile)
      |> Reg.Set.of_list
    in
    (* Steps 2.1/2.2: resolve a preference of [n] given its available
       set. *)
    let resolve n avail (p : Ref_rpg.pref) =
      let target_reg t k =
        match color_of t with
        | Some c -> (
            match k c with
            | Some want ->
                if Reg.Set.mem want avail then Screen (Reg.Set.singleton want)
                else Dead
            | None -> Dead)
        | None -> if Reg.Set.mem t !spilled then Dead else Defer
      in
      match p.Ref_rpg.target with
      | Ref_rpg.Coalesce t -> target_reg t (fun c -> Some c)
      | Ref_rpg.Seq_plus t -> target_reg t (fun c -> shifted c 1)
      | Ref_rpg.Seq_minus t -> target_reg t (fun c -> shifted c (-1))
      | Ref_rpg.Kind ->
          let cls = Igraph.cls g n in
          let volatile = p.Ref_rpg.weight.Strength.vol >= p.Ref_rpg.weight.Strength.nonvol in
          let s = Reg.Set.inter avail (kind_set cls volatile) in
          if Reg.Set.is_empty s then Dead else Screen s
      | Ref_rpg.In_limited ->
          let s = Reg.Set.filter (Machine.in_limited_set m) avail in
          if Reg.Set.is_empty s then Dead else Screen s
      | Ref_rpg.Memory -> if no_spill n then Dead else Want_memory
    in
    (* Effective strength of a resolved preference.  Coalesce and
       sequential preferences use the paper's memory-anchored Str with the
       weight side matching the register they screen to (the "parameter"
       of §5.1); honoring one at a non-positive effective strength would
       lose to spilling, so such preferences are treated as dead.  Kind
       preferences rank by the benefit of the right kind over the wrong
       one (for the paper's v4 the two formulations coincide at 28), and
       limited-set preferences by the fixup saving. *)
    let eff_strength (p : Ref_rpg.pref) resolved =
      match (resolved, p.Ref_rpg.target) with
      | Want_memory, _ -> Ref_rpg.strength str p
      | Screen s, (Ref_rpg.Coalesce _ | Ref_rpg.Seq_plus _ | Ref_rpg.Seq_minus _) ->
          let volatile =
            match Reg.Set.choose_opt s with
            | Some c -> Machine.is_volatile m c
            | None -> true
          in
          Strength.weight_for ~volatile p.Ref_rpg.weight
      | Screen _, Ref_rpg.Kind ->
          abs (p.Ref_rpg.weight.Strength.vol - p.Ref_rpg.weight.Strength.nonvol)
      | Screen _, Ref_rpg.In_limited ->
          let f =
            match p.Ref_rpg.instr_id with
            | Some id -> Strength.freq_of_instr str id
            | None -> 1
          in
          Costs.limited_fixup * f
      | Screen _, Ref_rpg.Memory | (Defer | Dead), _ -> 0
    in
    (* Honorable preferences with positive effective strength, strongest
       first. *)
    let honorable_of n avail =
      List.filter_map
        (fun p ->
          let r = resolve n avail p in
          match r with
          | Screen _ | Want_memory ->
              let e = eff_strength p r in
              if e > 0 then Some (p, r, e) else None
          | Defer | Dead -> None)
        (Ref_rpg.prefs rpg n)
      |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
    in
    (* Step 3 metric: differential between strongest and weakest honorable
       preference; a single preference counts its full strength.  The
       metric of a node only changes when a neighbor takes a color
       (availability) or a preference target resolves; those events
       invalidate the cache below. *)
    let metric_cache : (int * int) Reg.Tbl.t = Reg.Tbl.create 64 in
    let node_metric n =
      match Reg.Tbl.find_opt metric_cache n with
      | Some m -> m
      | None ->
          let avail = available n in
          let strengths =
            List.map (fun (_, _, e) -> e) (honorable_of n avail)
          in
          let m =
            match strengths with
            | [] -> (-1, 0)
            | [ s ] -> (s, s)
            | s :: rest ->
                let weakest = List.fold_left min s rest in
                (s - weakest, s)
          in
          Reg.Tbl.replace metric_cache n m;
          m
    in
    (* Assigning or spilling [n] can change the metric of its graph
       neighbors (availability) and of preference-related nodes. *)
    let invalidate_after n =
      Igraph.fold_adj g n ~init:() ~f:(fun () nb ->
          Reg.Tbl.remove metric_cache nb);
      List.iter (fun (u, _) -> Reg.Tbl.remove metric_cache u) (Ref_rpg.incoming rpg n);
      List.iter
        (fun (p : Ref_rpg.pref) ->
          match p.Ref_rpg.target with
          | Ref_rpg.Coalesce t | Ref_rpg.Seq_plus t | Ref_rpg.Seq_minus t ->
              Reg.Tbl.remove metric_cache t
          | Ref_rpg.Kind | Ref_rpg.In_limited | Ref_rpg.Memory -> ())
        (Ref_rpg.prefs rpg n)
    in
    let q : Reg.t list ref = ref (Ref_cpg.initial cpg) in
    let costs_tiebreak n = Strength.spill_cost str n in
    let pick_node () =
      match !q with
      | [] -> None
      | first :: rest -> (
          (* Nodes that optimistic simplification could not guarantee a
             color for go as early as the partial order allows: coloring
             them while registers remain free is how the select phase
             keeps spill decisions ahead of preference resolution
             (§5.4). *)
          match List.filter (fun n -> Reg.Set.mem n spill_risk) !q with
          | at_risk :: _ -> Some at_risk
          | [] when policy = Fifo -> Some first
          | [] ->
              (* Differential uses (differential, strongest); Strongest
                 compares the strongest preference alone. *)
              let key n =
                let d, s = node_metric n in
                match policy with
                | Differential -> (d, s)
                | Strongest | Fifo -> (s, d)
              in
              let best =
                List.fold_left
                  (fun acc n ->
                    let ka = key acc and kn = key n in
                    if
                      kn > ka
                      || (kn = ka && costs_tiebreak n > costs_tiebreak acc)
                      || (kn = ka
                         && costs_tiebreak n = costs_tiebreak acc
                         && Reg.compare n acc < 0)
                    then n
                    else acc)
                  first rest
              in
              Some best)
    in
    let bump which =
      let s = !stats in
      stats :=
        (match which with
        | `Coalesce -> { s with honored_coalesce = s.honored_coalesce + 1 }
        | `Seq -> { s with honored_sequential = s.honored_sequential + 1 }
        | `Kind -> { s with honored_kind = s.honored_kind + 1 }
        | `Limited -> { s with honored_limited = s.honored_limited + 1 }
        | `Active -> { s with active_spills = s.active_spills + 1 })
    in
    let finish n =
      invalidate_after n;
      q := List.filter (fun x -> not (Reg.equal x n)) !q;
      q := Ref_cpg.resolve cpg n @ !q
    in
    let spill n =
      spilled := Reg.Set.add n !spilled;
      finish n
    in
    let assign n =
      let avail = available n in
      if Reg.Set.is_empty avail then spill n
      else begin
        let resolved =
          List.map (fun p -> (p, resolve n avail p)) (Ref_rpg.prefs rpg n)
        in
        let honorable = honorable_of n avail in
        let strongest_is_memory =
          match honorable with (_, Want_memory, _) :: _ -> true | _ -> false
        in
        if strongest_is_memory then begin
          bump `Active;
          spill n
        end
        else begin
          (* Step 4.2: screen, strongest first. *)
          let current = ref avail in
          List.iter
            (fun (p, r, _) ->
              match r with
              | Screen s ->
                  let s = Reg.Set.inter s !current in
                  if not (Reg.Set.is_empty s) then begin
                    current := s;
                    match p.Ref_rpg.target with
                    | Ref_rpg.Coalesce _ -> bump `Coalesce
                    | Ref_rpg.Seq_plus _ | Ref_rpg.Seq_minus _ -> bump `Seq
                    | Ref_rpg.Kind -> bump `Kind
                    | Ref_rpg.In_limited -> bump `Limited
                    | Ref_rpg.Memory -> ()
                  end
              | Want_memory | Defer | Dead -> ())
            honorable;
          (* Step 4.3: keep future preferences honorable — both this
             node's deferred preferences and unallocated nodes' preferences
             targeting this node. *)
          let keep_if_nonempty filter =
            let s = Reg.Set.filter filter !current in
            if not (Reg.Set.is_empty s) then current := s
          in
          List.iter
            (fun (p, r) ->
              if r = Defer then
                match p.Ref_rpg.target with
                | Ref_rpg.Coalesce t ->
                    let av_t = available t in
                    keep_if_nonempty (fun c -> Reg.Set.mem c av_t)
                | Ref_rpg.Seq_plus t ->
                    (* n wants reg(t)+1: keep c with c-1 available to t. *)
                    let av_t = available t in
                    keep_if_nonempty (fun c ->
                        match shifted c (-1) with
                        | Some c' -> Reg.Set.mem c' av_t
                        | None -> false)
                | Ref_rpg.Seq_minus t ->
                    let av_t = available t in
                    keep_if_nonempty (fun c ->
                        match shifted c 1 with
                        | Some c' -> Reg.Set.mem c' av_t
                        | None -> false)
                | Ref_rpg.Kind | Ref_rpg.In_limited | Ref_rpg.Memory -> ())
            resolved;
          List.iter
            (fun (u, (p : Ref_rpg.pref)) ->
              if Reg.is_virtual u && color_of u = None
                 && not (Reg.Set.mem u !spilled)
              then
                let av_u = available u in
                match p.Ref_rpg.target with
                | Ref_rpg.Coalesce _ ->
                    keep_if_nonempty (fun c -> Reg.Set.mem c av_u)
                | Ref_rpg.Seq_plus _ ->
                    (* u wants reg(n)+1. *)
                    keep_if_nonempty (fun c ->
                        match shifted c 1 with
                        | Some c' -> Reg.Set.mem c' av_u
                        | None -> false)
                | Ref_rpg.Seq_minus _ ->
                    keep_if_nonempty (fun c ->
                        match shifted c (-1) with
                        | Some c' -> Reg.Set.mem c' av_u
                        | None -> false)
                | Ref_rpg.Kind | Ref_rpg.In_limited | Ref_rpg.Memory -> ())
            (Ref_rpg.incoming rpg n);
          (* Step 4.4: deterministic final pick. *)
          let score c =
            if fallback_nonvolatile_first then
              if Machine.is_volatile m c then 0 else 1
            else
              Strength.weight_for
                ~volatile:(Machine.is_volatile m c)
                (Strength.volatility str n)
          in
          let choice =
            Reg.Set.fold
              (fun c acc ->
                match acc with
                | None -> Some c
                | Some b ->
                    if
                      score c > score b
                      || (score c = score b && Reg.compare c b < 0)
                    then Some c
                    else acc)
              !current None
          in
          match choice with
          | Some c ->
              Reg.Tbl.replace colors n c;
              finish n
          | None -> spill n
        end
      end
    in
    let guard = ref (List.length (Ref_cpg.nodes cpg) + 1) in
    let rec loop () =
      decr guard;
      if !guard < 0 then invalid_arg "Ref_select.run: traversal did not settle";
      match pick_node () with
      | None -> ()
      | Some n ->
          assign n;
          loop ()
    in
    loop ();
    { colors; spilled = !spilled; stats = !stats }
end

(* Reference iterated register coalescing, kept verbatim from the
   Reg.Set / Reg.Tbl implementation the dense worklists replaced.  The
   production [Iterated] is property-tested byte for byte against it
   (test_baselines): every tie-break the set orders imposed must
   survive. *)
module Ref_iterated = struct
  type node_stage =
    | Precolored
    | Simplify_wl
    | Freeze_wl
    | Spill_wl
    | On_stack
    | Coalesced
    | Colored
    | Spilled

  type move_stage = Worklist_m | Active_m | Coalesced_m | Constrained_m | Frozen_m

  type state = {
    k : int;
    machine : Machine.t;
    g : Igraph.t;  (* the round's graph; coalescing merges in place *)
    stage : node_stage Reg.Tbl.t;
    degree : int Reg.Tbl.t;  (* neighbours not yet on the stack *)
    move_list : int list ref Reg.Tbl.t; (* node -> move ids *)
    move_stage : (int, move_stage) Hashtbl.t;
    move_ends : (int, Reg.t * Reg.t) Hashtbl.t;
    color : Reg.t Reg.Tbl.t;
    mutable simplify_wl : Reg.Set.t;
    mutable freeze_wl : Reg.Set.t;
    mutable spill_wl : Reg.Set.t;
    mutable worklist_moves : int list;
    mutable select_stack : Reg.t list;
    mutable spilled : Reg.Set.t;
    costs : Spill_cost.t;
    no_spill : Reg.t -> bool;
  }

  let stage_of st r =
    try Reg.Tbl.find st.stage r with Not_found -> Precolored

  let set_stage st r s = Reg.Tbl.replace st.stage r s

  (* Adjacent(n) excludes stack nodes; merged-away nodes are no longer
     in the graph. *)
  let adjacent st r =
    Igraph.fold_adj st.g r ~init:Reg.Set.empty ~f:(fun acc n ->
        if stage_of st n = On_stack then acc else Reg.Set.add n acc)

  let degree_of st r =
    if Reg.is_phys r then Igraph.infinite_degree
    else try Reg.Tbl.find st.degree r with Not_found -> 0

  let node_moves st r =
    let ms = match Reg.Tbl.find_opt st.move_list r with Some c -> !c | None -> [] in
    List.filter
      (fun id ->
        match Hashtbl.find st.move_stage id with
        | Worklist_m | Active_m -> true
        | Coalesced_m | Constrained_m | Frozen_m -> false)
      ms

  let move_related st r = node_moves st r <> []

  let enable_moves st nodes =
    Reg.Set.iter
      (fun n ->
        List.iter
          (fun id ->
            if Hashtbl.find st.move_stage id = Active_m then begin
              Hashtbl.replace st.move_stage id Worklist_m;
              st.worklist_moves <- id :: st.worklist_moves
            end)
          (node_moves st n))
      nodes

  let decrement_degree st m =
    if Reg.is_virtual m then begin
      let d = degree_of st m in
      Reg.Tbl.replace st.degree m (d - 1);
      if d = st.k then begin
        enable_moves st (Reg.Set.add m (adjacent st m));
        st.spill_wl <- Reg.Set.remove m st.spill_wl;
        if move_related st m then begin
          st.freeze_wl <- Reg.Set.add m st.freeze_wl;
          set_stage st m Freeze_wl
        end
        else begin
          st.simplify_wl <- Reg.Set.add m st.simplify_wl;
          set_stage st m Simplify_wl
        end
      end
    end

  let simplify st =
    match Reg.Set.choose_opt st.simplify_wl with
    | None -> ()
    | Some n ->
        st.simplify_wl <- Reg.Set.remove n st.simplify_wl;
        st.select_stack <- n :: st.select_stack;
        set_stage st n On_stack;
        Reg.Set.iter (decrement_degree st) (adjacent st n)

  let add_work_list st u =
    if
      Reg.is_virtual u
      && (not (move_related st u))
      && degree_of st u < st.k
      && stage_of st u = Freeze_wl
    then begin
      st.freeze_wl <- Reg.Set.remove u st.freeze_wl;
      st.simplify_wl <- Reg.Set.add u st.simplify_wl;
      set_stage st u Simplify_wl
    end

  let ok st t r =
    degree_of st t < st.k || Reg.is_phys t || Igraph.interferes st.g t r

  let conservative st nodes =
    let significant =
      Reg.Set.filter (fun n -> degree_of st n >= st.k) nodes
    in
    Reg.Set.cardinal significant < st.k

  let combine st u v =
    (match stage_of st v with
    | Freeze_wl -> st.freeze_wl <- Reg.Set.remove v st.freeze_wl
    | Spill_wl -> st.spill_wl <- Reg.Set.remove v st.spill_wl
    | _ -> ());
    set_stage st v Coalesced;
    (match (Reg.Tbl.find_opt st.move_list u, Reg.Tbl.find_opt st.move_list v) with
    | Some cu, Some cv -> cu := !cv @ !cu
    | None, Some cv -> Reg.Tbl.replace st.move_list u (ref !cv)
    | _, None -> ());
    enable_moves st (Reg.Set.singleton v);
    (* Each of [v]'s neighbours not yet adjacent to [u] gains an edge
       (precolored pairs never interfere), then loses the one to [v]. *)
    let nbrs = adjacent st v in
    let bump r =
      if Reg.is_virtual r then Reg.Tbl.replace st.degree r (degree_of st r + 1)
    in
    Reg.Set.iter
      (fun t ->
        if not (Igraph.interferes st.g t u || (Reg.is_phys t && Reg.is_phys u))
        then begin
          bump t;
          bump u
        end)
      nbrs;
    Igraph.merge st.g ~keep:u ~drop:v;
    Reg.Set.iter (decrement_degree st) nbrs;
    if degree_of st u >= st.k && stage_of st u = Freeze_wl then begin
      st.freeze_wl <- Reg.Set.remove u st.freeze_wl;
      st.spill_wl <- Reg.Set.add u st.spill_wl;
      set_stage st u Spill_wl
    end

  let coalesce st =
    match st.worklist_moves with
    | [] -> ()
    | id :: rest ->
        st.worklist_moves <- rest;
        let x0, y0 = Hashtbl.find st.move_ends id in
        let x = Igraph.alias st.g x0 and y = Igraph.alias st.g y0 in
        let u, v = if Reg.is_phys y then (y, x) else (x, y) in
        if Reg.equal u v then begin
          Hashtbl.replace st.move_stage id Coalesced_m;
          add_work_list st u
        end
        else if Reg.is_phys v || Igraph.interferes st.g u v then begin
          Hashtbl.replace st.move_stage id Constrained_m;
          add_work_list st u;
          add_work_list st v
        end
        else if
          (Reg.is_phys u && Reg.Set.for_all (fun t -> ok st t u) (adjacent st v))
          || (not (Reg.is_phys u))
             && conservative st (Reg.Set.union (adjacent st u) (adjacent st v))
        then begin
          Hashtbl.replace st.move_stage id Coalesced_m;
          combine st u v;
          add_work_list st u
        end
        else Hashtbl.replace st.move_stage id Active_m

  let freeze_moves st u =
    List.iter
      (fun id ->
        let x, y = Hashtbl.find st.move_ends id in
        let x = Igraph.alias st.g x and y = Igraph.alias st.g y in
        let v = if Reg.equal y (Igraph.alias st.g u) then x else y in
        Hashtbl.replace st.move_stage id Frozen_m;
        if
          Reg.is_virtual v
          && (not (move_related st v))
          && degree_of st v < st.k
          && stage_of st v = Freeze_wl
        then begin
          st.freeze_wl <- Reg.Set.remove v st.freeze_wl;
          st.simplify_wl <- Reg.Set.add v st.simplify_wl;
          set_stage st v Simplify_wl
        end)
      (node_moves st u)

  let freeze st =
    match Reg.Set.choose_opt st.freeze_wl with
    | None -> ()
    | Some u ->
        st.freeze_wl <- Reg.Set.remove u st.freeze_wl;
        st.simplify_wl <- Reg.Set.add u st.simplify_wl;
        set_stage st u Simplify_wl;
        freeze_moves st u

  let select_spill st =
    let metric r =
      if st.no_spill r then infinity
      else
        float_of_int (Spill_cost.spill_cost st.costs r)
        /. float_of_int (max 1 (degree_of st r))
    in
    match Reg.Set.elements st.spill_wl with
    | [] -> ()
    | blocked ->
        let victim, _ = Alloc_common.first_min metric blocked in
        st.spill_wl <- Reg.Set.remove victim st.spill_wl;
        st.simplify_wl <- Reg.Set.add victim st.simplify_wl;
        set_stage st victim Simplify_wl;
        freeze_moves st victim

  let assign_colors st =
    List.iter
      (fun n ->
        let forbidden =
          Igraph.fold_adj st.g n ~init:Reg.Set.empty ~f:(fun acc w ->
              match stage_of st w with
              | Precolored -> Reg.Set.add w acc
              | Colored -> Reg.Set.add (Reg.Tbl.find st.color w) acc
              | _ -> acc)
        in
        let cls = Igraph.cls st.g n in
        let free =
          List.filter
            (fun c -> not (Reg.Set.mem c forbidden))
            (file_regs st.machine cls)
        in
        let vol, nonvol = List.partition (Machine.is_volatile st.machine) free in
        (* Biased pick: a frozen/coalesced partner's color first. *)
        let partner_colors =
          List.filter_map
            (fun id ->
              let x, y = Hashtbl.find st.move_ends id in
              let x = Igraph.alias st.g x and y = Igraph.alias st.g y in
              let p =
                if Reg.equal x n then y else if Reg.equal y n then x else n
              in
              if Reg.equal p n then None
              else
                match stage_of st p with
                | Precolored -> Some p
                | Colored -> Reg.Tbl.find_opt st.color p
                | _ -> None)
            (match Reg.Tbl.find_opt st.move_list n with
            | Some c -> !c
            | None -> [])
        in
        let choice =
          match
            List.find_opt (fun c -> List.exists (Reg.equal c) free) partner_colors
          with
          | Some c -> Some c
          | None -> ( match nonvol @ vol with c :: _ -> Some c | [] -> None)
        in
        match choice with
        | Some c ->
            set_stage st n Colored;
            Reg.Tbl.replace st.color n c
        | None ->
            set_stage st n Spilled;
            st.spilled <- Reg.Set.add n st.spilled)
      st.select_stack;
    (* Coalesced nodes take their representative's color. *)
    Reg.Tbl.iter
      (fun n s ->
        if s = Coalesced then
          let a = Igraph.alias st.g n in
          match stage_of st a with
          | Precolored -> Reg.Tbl.replace st.color n a
          | Colored -> Reg.Tbl.replace st.color n (Reg.Tbl.find st.color a)
          | _ -> st.spilled <- Reg.Set.add n st.spilled)
      (Reg.Tbl.copy st.stage)

  let run_once (m : Machine.t) (a : Alloc_common.analysis) ~no_spill =
    let g = a.Alloc_common.graph in
    let costs = a.Alloc_common.costs in
    let st =
      {
        k = m.Machine.k;
        machine = m;
        g;
        stage = Reg.Tbl.create 128;
        degree = Reg.Tbl.create 128;
        move_list = Reg.Tbl.create 64;
        move_stage = Hashtbl.create 64;
        move_ends = Hashtbl.create 64;
        color = Reg.Tbl.create 128;
        simplify_wl = Reg.Set.empty;
        freeze_wl = Reg.Set.empty;
        spill_wl = Reg.Set.empty;
        worklist_moves = [];
        select_stack = [];
        spilled = Reg.Set.empty;
        costs;
        no_spill;
      }
    in
    let nodes = Reg.Set.of_list (Igraph.vnodes g) in
    Reg.Set.iter (fun r -> Reg.Tbl.replace st.degree r (Igraph.degree g r)) nodes;
    List.iter
      (fun mv ->
        let id = mv.Igraph.instr_id in
        if not (Hashtbl.mem st.move_ends id) then begin
          Hashtbl.replace st.move_ends id (mv.Igraph.dst, mv.Igraph.src);
          Hashtbl.replace st.move_stage id Worklist_m;
          st.worklist_moves <- id :: st.worklist_moves;
          List.iter
            (fun r ->
              if not (Reg.is_phys r && Reg.is_phys (if r == mv.Igraph.dst then mv.Igraph.src else mv.Igraph.dst)) then begin
                let cell =
                  match Reg.Tbl.find_opt st.move_list r with
                  | Some c -> c
                  | None ->
                      let c = ref [] in
                      Reg.Tbl.replace st.move_list r c;
                      c
                in
                cell := id :: !cell
              end)
            [ mv.Igraph.dst; mv.Igraph.src ]
        end)
      (Igraph.moves g);
    (* MakeWorklist *)
    Reg.Set.iter
      (fun n ->
        if degree_of st n >= st.k then begin
          st.spill_wl <- Reg.Set.add n st.spill_wl;
          set_stage st n Spill_wl
        end
        else if move_related st n then begin
          st.freeze_wl <- Reg.Set.add n st.freeze_wl;
          set_stage st n Freeze_wl
        end
        else begin
          st.simplify_wl <- Reg.Set.add n st.simplify_wl;
          set_stage st n Simplify_wl
        end)
      nodes;
    let continue () =
      (not (Reg.Set.is_empty st.simplify_wl))
      || st.worklist_moves <> []
      || (not (Reg.Set.is_empty st.freeze_wl))
      || not (Reg.Set.is_empty st.spill_wl)
    in
    while continue () do
      if not (Reg.Set.is_empty st.simplify_wl) then simplify st
      else if st.worklist_moves <> [] then coalesce st
      else if not (Reg.Set.is_empty st.freeze_wl) then freeze st
      else select_spill st
    done;
    assign_colors st;
    st

  let allocate (m : Machine.t) f0 =
    let color a ~no_spill =
      let st = run_once m a ~no_spill in
      if Reg.Set.is_empty st.spilled then
        Alloc_common.Colored (Reg.Tbl.find_opt st.color)
      else Alloc_common.Spill st.spilled
    in
    Alloc_common.drive ~name:"iterated" f0 color
end

(* Reference for [Cache], as the policy reads: the entries as an
   association list, hottest first, and the ghost as the last [capacity]
   refusals, newest first, each turned to [None] once its key is
   admitted.  [~plain_lru:true] admits every key: the plain LRU policy
   the ghost improves on.  Linear per operation; the daemon's O(1)
   cache is checked against it step by step (test_serve). *)
module Ref_cache = struct
  type 'a t = {
    capacity : int;
    plain_lru : bool;
    mutable entries : (string * 'a) list;
    mutable ghost : string option list;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable refused : int;
  }

  let create ?(plain_lru = false) capacity =
    {
      capacity = max 0 capacity;
      plain_lru;
      entries = [];
      ghost = [];
      hits = 0;
      misses = 0;
      evictions = 0;
      refused = 0;
    }

  let rec take n = function x :: l when n > 0 -> x :: take (n - 1) l | _ -> []
  let touch t key v = t.entries <- (key, v) :: List.remove_assoc key t.entries
  let mem t key = List.mem_assoc key t.entries

  let find t key =
    match List.assoc_opt key t.entries with
    | Some v ->
        t.hits <- t.hits + 1;
        touch t key v;
        Some v
    | None ->
        t.misses <- t.misses + 1;
        None

  let add t key v =
    if mem t key || t.capacity = 0 || List.length t.entries < t.capacity then
      touch t key v
    else if t.plain_lru || List.mem (Some key) t.ghost then begin
      t.ghost <- List.map (fun k -> if k = Some key then None else k) t.ghost;
      t.entries <- (key, v) :: take (t.capacity - 1) t.entries;
      t.evictions <- t.evictions + 1
    end
    else begin
      t.ghost <- take t.capacity (Some key :: t.ghost);
      t.refused <- t.refused + 1
    end

  let stats t : Cache.stats =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      entries = List.length t.entries;
      capacity = t.capacity;
      refused = t.refused;
    }
end
