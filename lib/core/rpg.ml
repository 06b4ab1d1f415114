(* Dense RPG.

   Nodes are indices of a compact numbering — the interference graph's
   numbering when the caller passes [?cpt] (the PDGC pipeline does), a
   private one otherwise.  Out- and in-edges live in plain arrays
   indexed by node, each edge stored with the index of its other
   endpoint (interned once here, so the dense select never hashes a
   [Reg.t] to find it); [prefs] used to re-sort the stored list on every
   call, so the build now sorts each out-edge list once at the end
   (stable sort over the same construction order — identical result,
   amortized to build time). *)

type ptype =
  | Coalesce of Reg.t
  | Seq_plus of Reg.t
  | Seq_minus of Reg.t
  | Kind
  | In_limited
  | Memory

type pref = { target : ptype; weight : Strength.weight; instr_id : int option }

type t = {
  cpt : Regbits.compact;
  mutable cap : int;
  mutable out_edges : (pref * int) list array;
      (* strongest first after build; each with its target's index *)
  mutable in_edges : (int * pref) list array;
      (* construction order; each with its source's index *)
  mutable out_nodes : int list; (* indices with out-edges, for pp *)
  pair_list : (int * Reg.t * Reg.t) list;
}

(* A [Memory] weight is stored as [{s; s}], so [best] is [s]. *)
let strength p = Strength.best p.weight

let find_idx t r =
  match Regbits.find t.cpt r with
  | Some i when i < t.cap -> Some i
  | Some _ | None -> None

let prefs t r =
  match find_idx t r with
  | Some i -> List.map fst t.out_edges.(i)
  | None -> []

let incoming t r =
  match find_idx t r with
  | Some i ->
      List.map (fun (ui, p) -> (Regbits.reg_at t.cpt ui, p)) t.in_edges.(i)
  | None -> []

let compact t = t.cpt
let prefs_idx t i = if i < t.cap then t.out_edges.(i) else []
let incoming_idx t i = if i < t.cap then t.in_edges.(i) else []

let pairs t = t.pair_list

(* Adjacent loads off the same base at consecutive word offsets, the
   first destination not clobbering the shared base. *)
let paired_candidates (fn : Cfg.func) =
  let word = 8 in
  List.concat_map
    (fun (b : Cfg.block) ->
      let instrs = b.Cfg.instrs in
      let n = Array.length instrs in
      let acc = ref [] in
      let k = ref 0 in
      while !k + 1 < n do
        match (instrs.(!k), instrs.(!k + 1)) with
        | ( ({ Instr.kind = Instr.Load l1; _ } as i1),
            ({ Instr.kind = Instr.Load l2; _ } as i2) )
          when Reg.equal l1.base l2.base
               && l2.offset = l1.offset + word
               && (not (Reg.equal l1.dst l2.dst))
               && (not (Reg.equal l1.dst l1.base))
               && Cfg.cls_of fn l1.dst = Cfg.cls_of fn l2.dst ->
            acc := (i1, i2) :: !acc;
            k := !k + 2
        | _ -> incr k
      done;
      !acc)
    fn.Cfg.blocks

let build ?(kinds = `All) ?cpt (_m : Machine.t) (fn : Cfg.func)
    (str : Strength.t) =
  let supplied = cpt in
  let cpt = match cpt with Some c -> c | None -> Regbits.create () in
  let t =
    {
      cpt;
      cap = 0;
      out_edges = [||];
      in_edges = [||];
      out_nodes = [];
      pair_list = [];
    }
  in
  let grow needed =
    let cap = max needed (max 16 (2 * t.cap)) in
    let out_edges = Array.make cap [] in
    let in_edges = Array.make cap [] in
    Array.blit t.out_edges 0 out_edges 0 t.cap;
    Array.blit t.in_edges 0 in_edges 0 t.cap;
    t.out_edges <- out_edges;
    t.in_edges <- in_edges;
    t.cap <- cap
  in
  grow (max 16 (Regbits.size cpt));
  let idx r =
    let i = Regbits.index t.cpt r in
    if i >= t.cap then grow (i + 1);
    i
  in
  (* [tgt] is the index of a virtual Coalesce/Seq target, -1 for a
     physical target and the self-shaped preferences. *)
  let add_out r p ~tgt =
    if Reg.is_virtual r then begin
      let i = idx r in
      if t.out_edges.(i) = [] then t.out_nodes <- i :: t.out_nodes;
      t.out_edges.(i) <- (p, tgt) :: t.out_edges.(i)
    end
  in
  let add_in target src p =
    if Reg.is_virtual target then begin
      let i = idx target in
      t.in_edges.(i) <- (idx src, p) :: t.in_edges.(i)
    end
  in
  let virt_idx r = if Reg.is_virtual r then idx r else -1 in
  (* Coalesce edges from every copy, in both directions. *)
  Cfg.iter_instrs fn (fun _ i ->
      match i.Instr.kind with
      | Instr.Move { dst; src }
        when (not (Reg.equal dst src)) && Cfg.cls_of fn dst = Cfg.cls_of fn src
        ->
          let edge v target =
            let p =
              {
                target = Coalesce target;
                weight = Strength.coalesce str v ~instr_id:i.Instr.id;
                instr_id = Some i.Instr.id;
              }
            in
            add_out v p ~tgt:(virt_idx target);
            add_in target v p
          in
          edge dst src;
          edge src dst
      | _ -> ());
  let pair_list = ref [] in
  if kinds = `All then begin
    (* Sequential± edges from paired-load candidates. *)
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
        add_out hi_dst p_hi ~tgt:(virt_idx lo_dst);
        add_in lo_dst hi_dst p_hi;
        let p_lo =
          {
            target = Seq_minus hi_dst;
            weight = Strength.sequential str lo_dst ~instr_id:hi.Instr.id;
            instr_id = Some hi.Instr.id;
          }
        in
        add_out lo_dst p_lo ~tgt:(virt_idx hi_dst);
        add_in hi_dst lo_dst p_lo)
      (paired_candidates fn);
    (* Limited-set preferences. *)
    Cfg.iter_instrs fn (fun _ i ->
        match i.Instr.kind with
        | Instr.Limited { dst; _ } ->
            add_out dst ~tgt:(-1)
              {
                target = In_limited;
                weight = Strength.limited str dst ~instr_id:i.Instr.id;
                instr_id = Some i.Instr.id;
              }
        | _ -> ());
    (* Volatility and memory preferences for every live range.  A
       caller-supplied numbering already interns every register of the
       function body (it comes from the interference graph built over
       the same [fn]), so its virtual entries are exactly
       [Cfg.all_vregs fn] — iterate those, sorted to reproduce the
       [Reg.Set] order, instead of re-scanning the whole function. *)
    let each_vreg f =
      match supplied with
      | Some c ->
          let vs = ref [] in
          for i = Regbits.size c - 1 downto 0 do
            let r = Regbits.reg_at c i in
            if Reg.is_virtual r then vs := r :: !vs
          done;
          List.iter f (List.sort Reg.compare !vs)
      | None -> Reg.Set.iter f (Cfg.all_vregs fn)
    in
    each_vreg (fun r ->
        add_out r ~tgt:(-1)
          { target = Kind; weight = Strength.volatility str r; instr_id = None };
        let mem = Strength.memory str r in
        if mem > 0 then
          add_out r ~tgt:(-1)
            {
              target = Memory;
              weight = { Strength.vol = mem; nonvol = mem };
              instr_id = None;
            })
  end;
  (* Sort every out-edge list strongest-first, once.  [List.sort] is
     stable and the lists were constructed in the same order as the
     tree-based version stored them, so per-call sorting and this
     single build-time sort agree edge for edge. *)
  List.iter
    (fun i ->
      t.out_edges.(i) <-
        List.sort
          (fun (a, _) (b, _) -> compare (strength b) (strength a))
          t.out_edges.(i))
    t.out_nodes;
  { t with pair_list = !pair_list }

let pp_ptype ppf = function
  | Coalesce r -> Format.fprintf ppf "coalesce %a" Reg.pp r
  | Seq_plus r -> Format.fprintf ppf "seq+ %a" Reg.pp r
  | Seq_minus r -> Format.fprintf ppf "seq- %a" Reg.pp r
  | Kind -> Format.pp_print_string ppf "kind"
  | In_limited -> Format.pp_print_string ppf "limited"
  | Memory -> Format.pp_print_string ppf "memory"

let iter_out t f =
  List.iter
    (fun i -> f (Regbits.reg_at t.cpt i) (List.map fst t.out_edges.(i)))
    (List.rev t.out_nodes)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  iter_out t (fun r ps ->
      List.iter
        (fun p ->
          Format.fprintf ppf "%a --[%a]--> %a@ " Reg.pp r Strength.pp_weight
            p.weight pp_ptype p.target)
        ps);
  Format.fprintf ppf "@]"

let to_dot ?(name = Reg.to_string) ppf t =
  Format.fprintf ppf "digraph rpg {@.";
  iter_out t (fun r ps ->
      List.iter
        (fun p ->
          let w = Format.asprintf "%a" Strength.pp_weight p.weight in
          match p.target with
          | Coalesce x ->
              Format.fprintf ppf "  \"%s\" -> \"%s\" [label=\"coalesce %s\"];@."
                (name r) (name x) w
          | Seq_plus x ->
              Format.fprintf ppf
                "  \"%s\" -> \"%s\" [style=dashed,label=\"seq+ %s\"];@."
                (name r) (name x) w
          | Seq_minus x ->
              Format.fprintf ppf
                "  \"%s\" -> \"%s\" [style=dashed,label=\"seq- %s\"];@."
                (name r) (name x) w
          | Kind ->
              Format.fprintf ppf
                "  \"%s\" -> \"kind\" [style=dotted,label=\"%s\"];@."
                (name r) w
          | In_limited ->
              Format.fprintf ppf
                "  \"%s\" -> \"limited\" [style=dotted,label=\"%s\"];@."
                (name r) w
          | Memory ->
              Format.fprintf ppf
                "  \"%s\" -> \"memory\" [style=dotted,label=\"%s\"];@."
                (name r) w)
        ps);
  Format.fprintf ppf "}@."
