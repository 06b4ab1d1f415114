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
  reg_base : Reg.t; (* smallest register with a site *)
  reg_sites : int list array; (* register - reg_base -> sites, program order *)
  bits_in : Regbits.Set.t Solver.result;
}

let def_of_instr (i : Instr.t) =
  match Instr.defs i.Instr.kind with
  | [ r ] when Reg.is_virtual r -> Some r
  | _ -> None

(* In-place forward transfer: kill the register's other sites, set this
   one. *)
let transfer_site ~site_reg ~reg_base ~reg_sites live s =
  List.iter
    (fun d -> Regbits.Set.remove live d)
    reg_sites.(site_reg.(s) - reg_base);
  Regbits.Set.add live s

let compute (f : Cfg.func) =
  let n = Cfg.n_instrs f in
  let site_of_index = Array.make n (-1) in
  let sites = ref [] and n_sites = ref 0 in
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
              sites := r :: !sites
          | None -> ());
          incr idx)
        b.Cfg.instrs)
    f.Cfg.blocks;
  let n_sites = !n_sites in
  let site_reg = Array.of_list (List.rev !sites) in
  (* Sites by register, over the span of registers with a site; built
     backwards so each list comes out in program order. *)
  let reg_base = Array.fold_left min max_int site_reg in
  let span = Array.fold_left max (-1) site_reg - reg_base + 1 in
  let reg_sites = Array.make (max 0 span) [] in
  for s = n_sites - 1 downto 0 do
    let v = site_reg.(s) - reg_base in
    reg_sites.(v) <- s :: reg_sites.(v)
  done;
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
        if s >= 0 then transfer_site ~site_reg ~reg_base ~reg_sites live s)
      b.Cfg.instrs;
    live
  in
  {
    fn = f;
    n_sites;
    site_of_index;
    site_reg;
    reg_base;
    reg_sites;
    bits_in = S.solve ~direction:Solver.Forward ~transfer f;
  }

(* {1 Dense accessors} *)

let n_sites t = t.n_sites
let site_reg t s = t.site_reg.(s)

let sites_of_reg t r =
  let v = r - t.reg_base in
  if v >= 0 && v < Array.length t.reg_sites then t.reg_sites.(v) else []

let iter_block_forward_bits t (b : Cfg.block) ~f =
  let live = Regbits.Set.copy (Solver.input t.bits_in b.Cfg.label) in
  let base = Cfg.instr_index t.fn b.Cfg.instrs.(0) in
  Array.iteri
    (fun k i ->
      let s = t.site_of_index.(base + k) in
      f ~reaching:live ~site:s i;
      if s >= 0 then
        transfer_site ~site_reg:t.site_reg ~reg_base:t.reg_base
          ~reg_sites:t.reg_sites live s)
    b.Cfg.instrs
