type t = { func : Cfg.func; origin : Reg.t Reg.Tbl.t }

(* Union-find over definition sites, as flat int arrays over the dense
   site numbering. *)
module Uf = struct
  type t = int array

  let create n : t = Array.init n (fun i -> i)

  let rec find (t : t) x =
    let p = t.(x) in
    if p = x then x
    else begin
      let r = find t p in
      t.(x) <- r;
      r
    end

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then t.(ra) <- rb
end

let run (f : Cfg.func) =
  (* Phi sources flow along edges, which def-use chains over block-entry
     reaching sets cannot see; callers must destruct SSA first. *)
  Cfg.iter_instrs f (fun _ i ->
      match i.Instr.kind with
      | Instr.Phi _ -> invalid_arg "Webs.run: phi instructions present"
      | _ -> ());
  let reaching = Reaching.compute f in
  let uf = Uf.create (Reaching.n_sites reaching) in
  (* A use merges all definitions of its register that reach it: walk
     the register's (few) sites and keep those in the reaching bitset. *)
  List.iter
    (fun b ->
      Reaching.iter_block_forward_bits reaching b
        ~f:(fun ~reaching:defs ~site:_ i ->
          List.iter
            (fun r ->
              if Reg.is_virtual r then begin
                let first = ref (-1) in
                List.iter
                  (fun s ->
                    if Regbits.Set.mem defs s then
                      if !first < 0 then first := s
                      else Uf.union uf !first s)
                  (Reaching.sites_of_reg reaching r)
              end)
            (Instr.uses i.Instr.kind)))
    f.Cfg.blocks;
  (* One fresh register per web (per union-find class). *)
  let web_reg = Array.make (max 1 (Reaching.n_sites reaching)) None in
  let origin = Reg.Tbl.create 64 in
  let reg_for_def site r =
    let root = Uf.find uf site in
    match web_reg.(root) with
    | Some w -> w
    | None ->
        let w = Cfg.fresh_reg f (Cfg.cls_of f r) in
        web_reg.(root) <- Some w;
        Reg.Tbl.replace origin w r;
        w
  in
  let blocks =
    List.map
      (fun b ->
        let instrs = Array.make (Array.length b.Cfg.instrs) Instr.dummy in
        let k = ref 0 in
        Reaching.iter_block_forward_bits reaching b
          ~f:(fun ~reaching:defs ~site i ->
            let kind = i.Instr.kind in
            (* Rewrite uses first (relative to incoming definitions),
               then the def. *)
            let kind =
              Instr.map_uses
                (fun r ->
                  if not (Reg.is_virtual r) then r
                  else
                    let site = ref (-1) in
                    List.iter
                      (fun s ->
                        if !site < 0 && Regbits.Set.mem defs s then site := s)
                      (Reaching.sites_of_reg reaching r);
                    if !site >= 0 then reg_for_def !site r
                    else r (* no reaching definition: keep the name *))
                kind
            in
            let kind =
              Instr.map_defs
                (fun r ->
                  if not (Reg.is_virtual r) then r
                  else if site < 0 then
                    invalid_arg "Webs.run: virtual def outside a def site"
                  else reg_for_def site r)
                kind
            in
            instrs.(!k) <- { i with Instr.kind };
            incr k);
        { b with Cfg.instrs })
      f.Cfg.blocks
  in
  { func = Cfg.with_blocks f blocks; origin }

(* [web.(r - first_virtual)] for a register below the input's
   [next_reg]: [undefined] for one with no definition, which keeps its
   name; [unnamed] for a defined one not yet met; its web register
   after that.  Fresh names are handed out where [run] hands them out,
   at the first use or definition met walking forward through
   [Instr.map_uses] and then [Instr.map_defs]: the same two functions,
   so also the same order among one instruction's operands. *)
let undefined = -1
let unnamed = -2

let rename (f : Cfg.func) =
  let base = Reg.first_virtual in
  let web = Array.make (max 0 (f.Cfg.next_reg - base)) undefined in
  Cfg.iter_instrs f (fun _ i ->
      List.iter
        (fun r -> if Reg.is_virtual r then web.(r - base) <- unnamed)
        (Instr.defs i.Instr.kind));
  let origin = Reg.Tbl.create 64 in
  let name r =
    if not (Reg.is_virtual r) then r
    else
      let w = web.(r - base) in
      if w = undefined then r
      else if w <> unnamed then w
      else begin
        let w = Cfg.fresh_reg f (Cfg.cls_of f r) in
        web.(r - base) <- w;
        Reg.Tbl.replace origin w r;
        w
      end
  in
  let blocks =
    List.map
      (fun b ->
        let instrs =
          Array.map
            (fun i ->
              let kind = Instr.map_uses name i.Instr.kind in
              { i with Instr.kind = Instr.map_defs name kind })
            b.Cfg.instrs
        in
        { b with Cfg.instrs })
      f.Cfg.blocks
  in
  { func = Cfg.with_blocks f blocks; origin }
