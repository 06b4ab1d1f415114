(* Dense RPG.

   Nodes are indices of the round's compact numbering (the interference
   graph's, passed as [~cpt]), which holds every register of the body,
   so the edge arrays are sized once.  Out- and in-edges live in plain
   arrays indexed by node, each edge stored with the index of its other
   endpoint (looked up once here, so the dense select never hashes a
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
  out_edges : (pref * int) list array;
      (* strongest first after build; each with its target's index *)
  in_edges : (int * pref) list array;
      (* construction order; each with its source's index *)
  out_nodes : int list; (* indices with out-edges, for pp *)
  pair_list : (int * Reg.t * Reg.t) list;
}

(* A [Memory] weight is stored as [{s; s}], so [best] is [s]. *)
let strength p = Strength.best p.weight

let prefs t r = List.map fst t.out_edges.(Regbits.index t.cpt r)

let incoming t r =
  List.map
    (fun (ui, p) -> (Regbits.reg_at t.cpt ui, p))
    t.in_edges.(Regbits.index t.cpt r)

let compact t = t.cpt
let prefs_idx t i = t.out_edges.(i)
let incoming_idx t i = t.in_edges.(i)

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

let build ?(kinds = `All) ~cpt (_m : Machine.t) (fn : Cfg.func)
    (str : Strength.t) =
  let n = Regbits.size cpt in
  let out_edges = Array.make n [] and in_edges = Array.make n [] in
  let out_nodes = ref [] in
  let idx = Regbits.index cpt in
  (* [tgt] is the index of a virtual Coalesce/Seq target, -1 for a
     physical target and the self-shaped preferences. *)
  let add_out r p ~tgt =
    if Reg.is_virtual r then begin
      let i = idx r in
      if out_edges.(i) = [] then out_nodes := i :: !out_nodes;
      out_edges.(i) <- (p, tgt) :: out_edges.(i)
    end
  in
  let add_in target src p =
    if Reg.is_virtual target then begin
      let i = idx target in
      in_edges.(i) <- (idx src, p) :: in_edges.(i)
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
    (* Volatility and memory preferences for every live range.  The
       numbering holds every register of the body, so its virtual
       entries are exactly [Cfg.all_vregs fn] — iterate those, sorted to
       reproduce the [Reg.Set] order, instead of re-scanning the whole
       function. *)
    let vs = ref [] in
    for i = n - 1 downto 0 do
      let r = Regbits.reg_at cpt i in
      if Reg.is_virtual r then vs := r :: !vs
    done;
    List.iter
      (fun r ->
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
      (List.sort Reg.compare !vs)
  end;
  (* Sort every out-edge list strongest-first, once.  [List.sort] is
     stable and the lists were constructed in the same order as the
     tree-based version stored them, so per-call sorting and this
     single build-time sort agree edge for edge. *)
  List.iter
    (fun i ->
      out_edges.(i) <-
        List.sort
          (fun (a, _) (b, _) -> compare (strength b) (strength a))
          out_edges.(i))
    !out_nodes;
  { cpt; out_edges; in_edges; out_nodes = !out_nodes; pair_list = !pair_list }

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
