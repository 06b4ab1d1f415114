type block = { label : Instr.label; instrs : Instr.t array }

(* Dense per-function instruction numbering: instructions in block order
   get consecutive indices 0..n-1, and a side array maps instruction ids
   (which survive rewrites) back to indices.  Built lazily and cached on
   the function; every body rewrite drops the cache. *)
type numbering = {
  n : int;
  index_of_id : int array; (* instr id -> dense index, -1 when absent *)
}

(* One byte per virtual register, at [r - Reg.first_virtual]: 0 when no
   class is recorded, 1 for the integer class, 2 for the float class.
   The record is shared by every rewritten version of a function, so
   growing [bytes] in place keeps them in step. *)
module Classes = struct
  type t = { mutable bytes : Bytes.t; mutable length : int }

  let create n = { bytes = Bytes.make (max n 16) '\000'; length = 0 }
  let copy t = { t with bytes = Bytes.copy t.bytes }
  let length t = t.length

  let code : Reg.cls -> char = function
    | Reg.Int_class -> '\001'
    | Reg.Float_class -> '\002'

  let add t r cls =
    if not (Reg.is_virtual r) then
      invalid_arg (Printf.sprintf "Cfg.Classes.add: physical register %d" r);
    let o = r - Reg.first_virtual in
    let len = Bytes.length t.bytes in
    if o >= len then begin
      let bigger = Bytes.make (max (o + 1) (2 * len)) '\000' in
      Bytes.blit t.bytes 0 bigger 0 len;
      t.bytes <- bigger
    end;
    if Bytes.unsafe_get t.bytes o = '\000' then t.length <- t.length + 1;
    Bytes.unsafe_set t.bytes o (code cls)

  (* Allocation-free: both results are static constants. *)
  let find_opt t r =
    let o = r - Reg.first_virtual in
    if o < 0 || o >= Bytes.length t.bytes then None
    else
      match Bytes.unsafe_get t.bytes o with
      | '\001' -> Some Reg.Int_class
      | '\002' -> Some Reg.Float_class
      | _ -> None

  let fold f t init =
    let acc = ref init in
    Bytes.iteri
      (fun o c ->
        match c with
        | '\001' -> acc := f (o + Reg.first_virtual) Reg.Int_class !acc
        | '\002' -> acc := f (o + Reg.first_virtual) Reg.Float_class !acc
        | _ -> ())
      t.bytes;
    !acc
end

type func = {
  name : string;
  entry : Instr.label;
  blocks : block list;
  n_params : int;
  reg_cls : Classes.t;
  mutable next_reg : Reg.t;
  mutable next_instr_id : int;
  mutable next_label : Instr.label;
  mutable numbering : numbering option;
}

type program = { funcs : func list; main : string }

let create_func ~name ~n_params ~entry =
  {
    name;
    entry;
    blocks = [];
    n_params;
    reg_cls = Classes.create 64;
    next_reg = Reg.first_virtual;
    next_instr_id = 0;
    next_label = entry + 1;
    numbering = None;
  }

let with_blocks f blocks = { f with blocks; numbering = None }

let clone f =
  {
    f with
    reg_cls = Classes.copy f.reg_cls;
    next_reg = f.next_reg;
    next_instr_id = f.next_instr_id;
    next_label = f.next_label;
    numbering = None;
  }

let fresh_reg f cls =
  let r = f.next_reg in
  f.next_reg <- r + 1;
  Classes.add f.reg_cls r cls;
  r

let fresh_label f =
  let l = f.next_label in
  f.next_label <- l + 1;
  l

let instr f kind =
  let id = f.next_instr_id in
  f.next_instr_id <- id + 1;
  { Instr.id; kind }

let cls_of f r =
  if Reg.is_phys r then Reg.phys_cls r
  else
    match Classes.find_opt f.reg_cls r with
    | Some c -> c
    | None -> raise Not_found

let block f l =
  match List.find_opt (fun b -> b.label = l) f.blocks with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Cfg.block: no block L%d in %s" l f.name)

let mk_block label instrs =
  let n = Array.length instrs in
  if n = 0 then
    invalid_arg (Printf.sprintf "Cfg.mk_block: empty block L%d" label);
  for i = 0 to n - 2 do
    if Instr.is_terminator instrs.(i).Instr.kind then
      invalid_arg
        (Printf.sprintf "Cfg.mk_block: terminator mid-block in L%d" label)
  done;
  if not (Instr.is_terminator instrs.(n - 1).Instr.kind) then
    invalid_arg (Printf.sprintf "Cfg.mk_block: block L%d lacks a terminator" label);
  { label; instrs }

let terminator b =
  let n = Array.length b.instrs in
  if n = 0 then
    invalid_arg
      (Printf.sprintf "Cfg.terminator: block L%d lacks a terminator" b.label);
  let t = b.instrs.(n - 1) in
  if Instr.is_terminator t.Instr.kind then t
  else
    invalid_arg
      (Printf.sprintf "Cfg.terminator: block L%d lacks a terminator" b.label)

let successors b = Instr.successors (terminator b).Instr.kind

(* Label-indexed arrays of a function have this length: one past the
   largest label the entry, a block or a branch target names, and at
   least [next_label]. *)
let label_bound f =
  List.fold_left
    (fun m b ->
      List.fold_left (fun m s -> max m (s + 1)) (max m (b.label + 1)) (successors b))
    (max f.next_label (f.entry + 1))
    f.blocks

let blocks_by_label f =
  let t = Array.make (label_bound f) None in
  List.iter
    (fun b -> if Option.is_none t.(b.label) then t.(b.label) <- Some b)
    f.blocks;
  t

let predecessors f =
  let preds = Array.make (label_bound f) [] in
  List.iter
    (fun b -> List.iter (fun s -> preds.(s) <- b.label :: preds.(s)) (successors b))
    f.blocks;
  preds

let reverse_postorder f =
  let by_label = blocks_by_label f in
  let visited = Array.make (Array.length by_label) false in
  let order = ref [] in
  let rec go l =
    if not visited.(l) then begin
      visited.(l) <- true;
      (match by_label.(l) with
      | Some b -> List.iter go (successors b)
      | None -> ());
      order := l :: !order
    end
  in
  go f.entry;
  !order

let iter_instrs f k =
  List.iter (fun b -> Array.iter (fun i -> k b i) b.instrs) f.blocks

let fold_instrs f k init =
  List.fold_left
    (fun acc b -> Array.fold_left (fun acc i -> k acc b i) acc b.instrs)
    init f.blocks

(* {1 Dense numbering} *)

let build_numbering f =
  let n = List.fold_left (fun n b -> n + Array.length b.instrs) 0 f.blocks in
  let index_of_id = Array.make f.next_instr_id (-1) in
  let k = ref 0 in
  List.iter
    (fun b ->
      Array.iter
        (fun i ->
          let id = i.Instr.id in
          if id < 0 || id >= Array.length index_of_id then
            invalid_arg
              (Printf.sprintf "Cfg.numbering: instr id %d out of range in %s" id
                 f.name);
          if index_of_id.(id) >= 0 then
            invalid_arg
              (Printf.sprintf "Cfg.numbering: duplicate instr id %d in %s" id
                 f.name);
          index_of_id.(id) <- !k;
          incr k)
        b.instrs)
    f.blocks;
  { n; index_of_id }

let numbering f =
  match f.numbering with
  | Some nb -> nb
  | None ->
      let nb = build_numbering f in
      f.numbering <- Some nb;
      nb

let n_instrs f = (numbering f).n

let instr_index f (i : Instr.t) =
  let nb = numbering f and id = i.Instr.id in
  let idx =
    if id < 0 || id >= Array.length nb.index_of_id then -1
    else nb.index_of_id.(id)
  in
  if idx < 0 then
    invalid_arg
      (Printf.sprintf "Cfg.instr_index: instr %d not in %s" i.Instr.id f.name);
  idx

let all_vregs f =
  fold_instrs f
    (fun acc _ i ->
      let add acc r = if Reg.is_virtual r then Reg.Set.add r acc else acc in
      let acc = List.fold_left add acc (Instr.defs i.Instr.kind) in
      List.fold_left add acc (Instr.uses i.Instr.kind))
    Reg.Set.empty

let map_instrs f rewrite =
  let blocks =
    List.map
      (fun b ->
        {
          b with
          instrs =
            Array.map (fun i -> { i with Instr.kind = rewrite i }) b.instrs;
        })
      f.blocks
  in
  with_blocks f blocks

(* {1 Body digest}

   A stable content hash of the function body, used as the cache key of
   the allocation service.  The serialization walks the current block
   list and flat instruction arrays directly — never the lazy numbering
   cache — and covers exactly what allocation observes: block structure
   (order, labels, entry), every instruction kind in body order, and
   the class of every register occurrence.  Instruction ids are
   excluded on purpose: they record construction history, not meaning,
   and including them would make structurally identical bodies hash
   apart.  [clone] shares the instruction arrays and copies the class
   table, so digests are invariant under it; any single-instruction
   edit changes the serialized stream and therefore the digest. *)

(* Zigzag varint, allocation-free: the digest is recomputed on every
   daemon cache lookup, so a [string_of_int] per field shows up. *)
let digest_int buf n =
  let u = ref (if n >= 0 then n lsl 1 else (((-1) - n) lsl 1) lor 1) in
  while !u >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!u land 0x7f)));
    u := !u lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !u)

let digest_reg f buf r =
  digest_int buf r;
  (* The class byte matters: the same kind over a float-class register
     allocates against the other register file. *)
  let cls =
    if Reg.is_phys r then Reg.phys_cls r
    else Option.value (Classes.find_opt f.reg_cls r) ~default:Reg.Int_class
  in
  Buffer.add_char buf (match cls with Reg.Int_class -> 'i' | Reg.Float_class -> 'f')

let binop_code : Instr.binop -> int = function
  | Instr.Add -> 0
  | Instr.Sub -> 1
  | Instr.Mul -> 2
  | Instr.Div -> 3
  | Instr.Rem -> 4
  | Instr.And -> 5
  | Instr.Or -> 6
  | Instr.Xor -> 7
  | Instr.Shl -> 8
  | Instr.Shr -> 9

let cmp_code : Instr.cmp -> int = function
  | Instr.Eq -> 0
  | Instr.Ne -> 1
  | Instr.Lt -> 2
  | Instr.Le -> 3
  | Instr.Gt -> 4
  | Instr.Ge -> 5

let unop_code : Instr.unop -> int = function
  | Instr.Neg -> 0
  | Instr.Not -> 1
  | Instr.Itof -> 2
  | Instr.Ftoi -> 3

let digest_kind f buf (k : Instr.kind) =
  let tag c = Buffer.add_char buf c in
  let reg = digest_reg f buf in
  let int = digest_int buf in
  match k with
  | Instr.Move { dst; src } ->
      tag 'M';
      reg dst;
      reg src
  | Instr.Const { dst; value } ->
      tag 'C';
      reg dst;
      Buffer.add_int64_le buf value
  | Instr.Unop { op; dst; src } ->
      tag 'U';
      int (unop_code op);
      reg dst;
      reg src
  | Instr.Binop { op; dst; src1; src2 } ->
      tag 'B';
      int (binop_code op);
      reg dst;
      reg src1;
      reg src2
  | Instr.Cmp { op; dst; src1; src2 } ->
      tag 'c';
      int (cmp_code op);
      reg dst;
      reg src1;
      reg src2
  | Instr.Load { dst; base; offset } ->
      tag 'L';
      reg dst;
      reg base;
      int offset
  | Instr.Load_pair { dst_lo; dst_hi; base; offset } ->
      tag 'P';
      reg dst_lo;
      reg dst_hi;
      reg base;
      int offset
  | Instr.Store { src; base; offset } ->
      tag 'S';
      reg src;
      reg base;
      int offset
  | Instr.Limited { dst; src } ->
      tag 'l';
      reg dst;
      reg src
  | Instr.Call { dst; callee; args } ->
      tag 'K';
      (match dst with
      | None -> tag 'n'
      | Some d ->
          tag 's';
          reg d);
      digest_int buf (String.length callee);
      Buffer.add_string buf callee;
      int (List.length args);
      List.iter reg args
  | Instr.Param { dst; index } ->
      tag 'p';
      reg dst;
      int index
  | Instr.Spill { src; slot } ->
      tag 'V';
      reg src;
      int slot
  | Instr.Reload { dst; slot } ->
      tag 'R';
      reg dst;
      int slot
  | Instr.Jump l ->
      tag 'J';
      int l
  | Instr.Branch { cond; ifso; ifnot } ->
      tag 'b';
      reg cond;
      int ifso;
      int ifnot
  | Instr.Ret None -> tag 'r'
  | Instr.Ret (Some r) ->
      tag 'T';
      reg r
  | Instr.Phi { dst; srcs } ->
      tag 'F';
      reg dst;
      int (List.length srcs);
      List.iter
        (fun (l, r) ->
          int l;
          reg r)
        srcs

let body_digest f =
  let buf = Buffer.create 1024 in
  digest_int buf f.n_params;
  digest_int buf f.entry;
  digest_int buf (List.length f.blocks);
  List.iter
    (fun b ->
      digest_int buf b.label;
      digest_int buf (Array.length b.instrs);
      Array.iter (fun i -> digest_kind f buf i.Instr.kind) b.instrs)
    f.blocks;
  Digest.string (Buffer.contents buf)

let find_func p name =
  match List.find_opt (fun f -> f.name = name) p.funcs with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Cfg.find_func: no function %s" name)

let validate f =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let exception Invalid of string in
  try
    let present = Array.make (label_bound f) false in
    List.iter
      (fun b ->
        if present.(b.label) then
          raise (Invalid (Printf.sprintf "duplicate label L%d" b.label));
        present.(b.label) <- true)
      f.blocks;
    if not present.(f.entry) then
      raise (Invalid (Printf.sprintf "entry L%d missing" f.entry));
    if (List.hd f.blocks).label <> f.entry then
      raise (Invalid (Printf.sprintf "entry block L%d is not first" f.entry));
    let preds = predecessors f in
    (* What the dense numbering and the class lookups assume: each
       instruction id is below [next_instr_id] and used once, and each
       virtual register has a class.  [fresh_reg] classes registers
       densely from [Reg.first_virtual], so a table that holds all of
       them below [next_reg] (that of every function made here) needs
       no lookup per operand. *)
    let seen = Bytes.make f.next_instr_id '\000' in
    let all_classed =
      Classes.length f.reg_cls >= f.next_reg - Reg.first_virtual
    in
    let classed r =
      if Reg.is_virtual r && Option.is_none (Classes.find_opt f.reg_cls r) then
        raise
          (Invalid
             (Printf.sprintf "virtual register %s has no class"
                (Reg.to_string r)))
    in
    List.iter
      (fun b ->
        let n = Array.length b.instrs in
        if n = 0 then
          raise (Invalid (Printf.sprintf "empty block L%d" b.label));
        Array.iteri
          (fun idx i ->
            let id = i.Instr.id in
            if id < 0 || id >= f.next_instr_id then
              raise
                (Invalid
                   (Printf.sprintf "instruction id %d in L%d outside [0, %d)"
                      id b.label f.next_instr_id));
            if Bytes.get seen id <> '\000' then
              raise
                (Invalid
                   (Printf.sprintf "duplicate instruction id %d in L%d" id
                      b.label));
            Bytes.set seen id '\001';
            if not all_classed then begin
              List.iter classed (Instr.defs i.Instr.kind);
              List.iter classed (Instr.uses i.Instr.kind)
            end;
            (* Only finalization pairs loads, into physical registers:
               a virtual paired destination is no single-definition
               site, so webs and liveness could not name it. *)
            (match i.Instr.kind with
            | Instr.Load_pair { dst_lo; dst_hi; _ }
              when Reg.is_virtual dst_lo || Reg.is_virtual dst_hi ->
                raise
                  (Invalid
                     (Format.asprintf
                        "paired load with a virtual destination in L%d: %a"
                        b.label Instr.pp i))
            | _ -> ());
            let terminal = Instr.is_terminator i.Instr.kind in
            if terminal && idx < n - 1 then
              raise
                (Invalid (Printf.sprintf "terminator mid-block in L%d" b.label));
            if (not terminal) && idx = n - 1 then
              raise
                (Invalid
                   (Printf.sprintf "block L%d lacks a terminator" b.label)))
          b.instrs;
        (* Phis must form a prefix of the block and their sources must
           match the predecessors exactly. *)
        let seen_non_phi = ref false in
        Array.iter
          (fun i ->
            match i.Instr.kind with
            | Instr.Phi { srcs; _ } ->
                if !seen_non_phi then
                  raise
                    (Invalid (Printf.sprintf "phi after non-phi in L%d" b.label));
                let ps = preds.(b.label) in
                let src_labels = List.map fst srcs in
                if List.sort compare src_labels <> List.sort compare ps then
                  raise
                    (Invalid
                       (Printf.sprintf
                          "phi sources of L%d do not match predecessors" b.label))
            | _ -> seen_non_phi := true)
          b.instrs;
        List.iter
          (fun s ->
            if not present.(s) then
              raise
                (Invalid
                   (Printf.sprintf "L%d branches to missing L%d" b.label s)))
          (successors b))
      f.blocks;
    Ok ()
  with
  | Invalid msg -> err "%s: %s" f.name msg
  | Invalid_argument msg -> err "%s: %s" f.name msg

let pp_block ppf b =
  Format.fprintf ppf "@[<v 2>L%d:@ %a@]" b.label
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Instr.pp)
    (Array.to_list b.instrs)

let pp_func ppf f =
  Format.fprintf ppf "@[<v>func %s(%d params):@ %a@]" f.name f.n_params
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_block)
    f.blocks

let pp_program ppf p =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_func)
    p.funcs
