(* Dense reaching definitions.

   Definition sites (instructions defining one virtual register) are
   numbered densely in block order via the function's instruction
   numbering, and the dataflow facts are int-array bitsets over those
   site indices — the transfer across a defining instruction clears the
   register's other sites (a tiny per-register list) and sets its own
   bit.  The consumer (web construction) walks the bitsets directly. *)

type t = {
  fn : Cfg.func;
  n_sites : int;
  site_of_index : int array; (* dense instr index -> site, or -1 *)
  site_reg : Reg.t array; (* site -> defined register *)
  reg_sites : int list Reg.Tbl.t; (* reg -> sites, program order *)
  bits_in : (Instr.label, Regbits.Set.t) Hashtbl.t;
}

let def_of_instr (i : Instr.t) =
  match Instr.defs i.Instr.kind with
  | [ r ] when Reg.is_virtual r -> Some r
  | _ -> None

(* In-place forward transfer: kill the register's other sites, set this
   one. *)
let transfer_site t live s =
  let r = t.site_reg.(s) in
  List.iter (fun d -> Regbits.Set.remove live d) (Reg.Tbl.find t.reg_sites r);
  Regbits.Set.add live s

let compute (f : Cfg.func) =
  let n = Cfg.n_instrs f in
  let site_of_index = Array.make n (-1) in
  let sites = ref [] and n_sites = ref 0 in
  let reg_sites = Reg.Tbl.create 64 in
  let idx = ref 0 in
  List.iter
    (fun (b : Cfg.block) ->
      Array.iter
        (fun i ->
          (match def_of_instr i with
          | Some r ->
              let s = !n_sites in
              incr n_sites;
              site_of_index.(!idx) <- s;
              sites := r :: !sites;
              let cur = try Reg.Tbl.find reg_sites r with Not_found -> [] in
              Reg.Tbl.replace reg_sites r (s :: cur)
          | None -> ());
          incr idx)
        b.Cfg.instrs)
    f.Cfg.blocks;
  let n_sites = !n_sites in
  let site_reg = Array.of_list (List.rev !sites) in
  Reg.Tbl.filter_map_inplace (fun _ sites -> Some (List.rev sites)) reg_sites;
  let t =
    {
      fn = f;
      n_sites;
      site_of_index;
      site_reg;
      reg_sites;
      bits_in = Hashtbl.create 16;
    }
  in
  let module F = struct
    type nonrec t = Regbits.Set.t

    let bottom = Regbits.Set.create n_sites
    let equal = Regbits.Set.equal
    let join = Regbits.Set.union
  end in
  let module S = Solver.Make (F) in
  let transfer (b : Cfg.block) incoming =
    let live = Regbits.Set.copy incoming in
    let base = Cfg.instr_index f b.Cfg.instrs.(0) in
    Array.iteri
      (fun k _ ->
        let s = site_of_index.(base + k) in
        if s >= 0 then transfer_site t live s)
      b.Cfg.instrs;
    live
  in
  let result = S.solve ~direction:Solver.Forward ~transfer f in
  Hashtbl.iter (fun l bits -> Hashtbl.replace t.bits_in l bits) result.S.input;
  t

(* {1 Dense accessors} *)

let n_sites t = t.n_sites
let site_reg t s = t.site_reg.(s)

let sites_of_reg t r =
  try Reg.Tbl.find t.reg_sites r with Not_found -> []

let reaching_in_bits t l =
  match Hashtbl.find_opt t.bits_in l with
  | Some s -> s
  | None -> Regbits.Set.create t.n_sites

let iter_block_forward_bits t (b : Cfg.block) ~f =
  let live = Regbits.Set.copy (reaching_in_bits t b.Cfg.label) in
  let base = Cfg.instr_index t.fn b.Cfg.instrs.(0) in
  Array.iteri
    (fun k i ->
      let s = t.site_of_index.(base + k) in
      f ~reaching:live ~site:s i;
      if s >= 0 then transfer_site t live s)
    b.Cfg.instrs
