exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ---- primitives ------------------------------------------------------- *)

(* Zigzag-mapped LEB128: small magnitudes of either sign stay short.
   OCaml ints are 63-bit here, so ten bytes bound any value. *)

let write_uvarint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

(* Zigzag: sign moves to bit 0, magnitude shifts up. *)
let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let write_int buf n = write_uvarint buf (zigzag n)

(* The same encodings written in place: [put_*] writes at [pos] and
   returns the position after, [*_size] is the number of bytes. *)
let uvarint_size n =
  let rec go n acc = if n lsr 7 = 0 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let rec put_uvarint b pos n =
  if n lsr 7 = 0 then begin
    Bytes.set b pos (Char.chr n);
    pos + 1
  end
  else begin
    Bytes.set b pos (Char.chr (n land 0x7f lor 0x80));
    put_uvarint b (pos + 1) (n lsr 7)
  end

let int_size n = uvarint_size (zigzag n)
let put_int b pos n = put_uvarint b pos (zigzag n)
let string_size s = uvarint_size (String.length s) + String.length s

let put_string b pos s =
  let pos = put_uvarint b pos (String.length s) in
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let write_int64 buf (v : int64) =
  let v = ref v in
  let continue = ref true in
  while !continue do
    let b = Int64.to_int (Int64.logand !v 0x7fL) in
    v := Int64.shift_right_logical !v 7;
    if Int64.equal !v 0L then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let write_string buf s =
  write_uvarint buf (String.length s);
  Buffer.add_string buf s

type reader = { src : string; mutable pos : int }

let reader ?(pos = 0) src = { src; pos }
let pos r = r.pos

let read_byte r =
  if r.pos >= String.length r.src then fail "truncated input at offset %d" r.pos;
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let read_uvarint r =
  let rec go shift acc =
    if shift > Sys.int_size then fail "varint overflow at offset %d" r.pos;
    let b = read_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_int r =
  let z = read_uvarint r in
  (z lsr 1) lxor (- (z land 1))

let read_int64 r =
  let rec go shift acc =
    if shift > 70 then fail "int64 varint overflow at offset %d" r.pos;
    let b = read_byte r in
    let acc =
      Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7f)) shift)
    in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0L

let read_string r =
  let n = read_uvarint r in
  if n < 0 || r.pos + n > String.length r.src then
    fail "truncated string (%d bytes) at offset %d" n r.pos;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* ---- instruction kinds ------------------------------------------------ *)

let write_binop buf (op : Instr.binop) =
  Buffer.add_char buf
    (match op with
    | Instr.Add -> '\000'
    | Instr.Sub -> '\001'
    | Instr.Mul -> '\002'
    | Instr.Div -> '\003'
    | Instr.Rem -> '\004'
    | Instr.And -> '\005'
    | Instr.Or -> '\006'
    | Instr.Xor -> '\007'
    | Instr.Shl -> '\008'
    | Instr.Shr -> '\009')

let read_binop r : Instr.binop =
  match read_byte r with
  | 0 -> Instr.Add
  | 1 -> Instr.Sub
  | 2 -> Instr.Mul
  | 3 -> Instr.Div
  | 4 -> Instr.Rem
  | 5 -> Instr.And
  | 6 -> Instr.Or
  | 7 -> Instr.Xor
  | 8 -> Instr.Shl
  | 9 -> Instr.Shr
  | b -> fail "bad binop code %d at offset %d" b r.pos

let write_cmp buf (op : Instr.cmp) =
  Buffer.add_char buf
    (match op with
    | Instr.Eq -> '\000'
    | Instr.Ne -> '\001'
    | Instr.Lt -> '\002'
    | Instr.Le -> '\003'
    | Instr.Gt -> '\004'
    | Instr.Ge -> '\005')

let read_cmp r : Instr.cmp =
  match read_byte r with
  | 0 -> Instr.Eq
  | 1 -> Instr.Ne
  | 2 -> Instr.Lt
  | 3 -> Instr.Le
  | 4 -> Instr.Gt
  | 5 -> Instr.Ge
  | b -> fail "bad cmp code %d at offset %d" b r.pos

let write_unop buf (op : Instr.unop) =
  Buffer.add_char buf
    (match op with
    | Instr.Neg -> '\000'
    | Instr.Not -> '\001'
    | Instr.Itof -> '\002'
    | Instr.Ftoi -> '\003')

let read_unop r : Instr.unop =
  match read_byte r with
  | 0 -> Instr.Neg
  | 1 -> Instr.Not
  | 2 -> Instr.Itof
  | 3 -> Instr.Ftoi
  | b -> fail "bad unop code %d at offset %d" b r.pos

let write_kind buf (k : Instr.kind) =
  let tag n = Buffer.add_char buf (Char.chr n) in
  let reg = write_int buf in
  let int = write_int buf in
  match k with
  | Instr.Move { dst; src } ->
      tag 0;
      reg dst;
      reg src
  | Instr.Const { dst; value } ->
      tag 1;
      reg dst;
      write_int64 buf value
  | Instr.Unop { op; dst; src } ->
      tag 2;
      write_unop buf op;
      reg dst;
      reg src
  | Instr.Binop { op; dst; src1; src2 } ->
      tag 3;
      write_binop buf op;
      reg dst;
      reg src1;
      reg src2
  | Instr.Cmp { op; dst; src1; src2 } ->
      tag 4;
      write_cmp buf op;
      reg dst;
      reg src1;
      reg src2
  | Instr.Load { dst; base; offset } ->
      tag 5;
      reg dst;
      reg base;
      int offset
  | Instr.Load_pair { dst_lo; dst_hi; base; offset } ->
      tag 6;
      reg dst_lo;
      reg dst_hi;
      reg base;
      int offset
  | Instr.Store { src; base; offset } ->
      tag 7;
      reg src;
      reg base;
      int offset
  | Instr.Limited { dst; src } ->
      tag 8;
      reg dst;
      reg src
  | Instr.Call { dst; callee; args } ->
      tag 9;
      (match dst with
      | None -> Buffer.add_char buf '\000'
      | Some d ->
          Buffer.add_char buf '\001';
          reg d);
      write_string buf callee;
      int (List.length args);
      List.iter reg args
  | Instr.Param { dst; index } ->
      tag 10;
      reg dst;
      int index
  | Instr.Spill { src; slot } ->
      tag 11;
      reg src;
      int slot
  | Instr.Reload { dst; slot } ->
      tag 12;
      reg dst;
      int slot
  | Instr.Jump l ->
      tag 13;
      int l
  | Instr.Branch { cond; ifso; ifnot } ->
      tag 14;
      reg cond;
      int ifso;
      int ifnot
  | Instr.Ret None -> tag 15
  | Instr.Ret (Some v) ->
      tag 16;
      reg v
  | Instr.Phi { dst; srcs } ->
      tag 17;
      reg dst;
      int (List.length srcs);
      List.iter
        (fun (l, v) ->
          int l;
          reg v)
        srcs

(* Register ids, instruction ids and labels must lie in [0, bound),
   the bound being the function's counter: the allocator indexes
   arrays by them (DESIGN §6, "Decode bounds"). *)
let read_id r what bound =
  let v = read_int r in
  if v < 0 || v >= bound then
    fail "%s %d outside [0, %d) at offset %d" what v bound r.pos;
  v

let read_count r what =
  let n = read_int r in
  if n < 0 then fail "negative %s count at offset %d" what r.pos;
  (* Every element takes at least one byte. *)
  if n > String.length r.src - r.pos then
    fail "%s count %d exceeds the input at offset %d" what n r.pos;
  n

let read_kind ~next_reg ~next_label r : Instr.kind =
  let reg () = read_id r "register" next_reg in
  let label () = read_id r "label" next_label in
  let int () = read_int r in
  match read_byte r with
  | 0 ->
      let dst = reg () in
      let src = reg () in
      Instr.Move { dst; src }
  | 1 ->
      let dst = reg () in
      let value = read_int64 r in
      Instr.Const { dst; value }
  | 2 ->
      let op = read_unop r in
      let dst = reg () in
      let src = reg () in
      Instr.Unop { op; dst; src }
  | 3 ->
      let op = read_binop r in
      let dst = reg () in
      let src1 = reg () in
      let src2 = reg () in
      Instr.Binop { op; dst; src1; src2 }
  | 4 ->
      let op = read_cmp r in
      let dst = reg () in
      let src1 = reg () in
      let src2 = reg () in
      Instr.Cmp { op; dst; src1; src2 }
  | 5 ->
      let dst = reg () in
      let base = reg () in
      let offset = int () in
      Instr.Load { dst; base; offset }
  | 6 ->
      let dst_lo = reg () in
      let dst_hi = reg () in
      let base = reg () in
      let offset = int () in
      Instr.Load_pair { dst_lo; dst_hi; base; offset }
  | 7 ->
      let src = reg () in
      let base = reg () in
      let offset = int () in
      Instr.Store { src; base; offset }
  | 8 ->
      let dst = reg () in
      let src = reg () in
      Instr.Limited { dst; src }
  | 9 ->
      let dst =
        match read_byte r with
        | 0 -> None
        | 1 -> Some (reg ())
        | b -> fail "bad call-dst flag %d at offset %d" b r.pos
      in
      let callee = read_string r in
      let n = read_count r "arg" in
      (* Explicit loops everywhere below: the reader is stateful and
         [List.init]/[Array.init] do not guarantee evaluation order. *)
      let args = ref [] in
      for _ = 1 to n do
        args := reg () :: !args
      done;
      Instr.Call { dst; callee; args = List.rev !args }
  | 10 ->
      let dst = reg () in
      let index = int () in
      Instr.Param { dst; index }
  | 11 ->
      let src = reg () in
      let slot = int () in
      Instr.Spill { src; slot }
  | 12 ->
      let dst = reg () in
      let slot = int () in
      Instr.Reload { dst; slot }
  | 13 -> Instr.Jump (label ())
  | 14 ->
      let cond = reg () in
      let ifso = label () in
      let ifnot = label () in
      Instr.Branch { cond; ifso; ifnot }
  | 15 -> Instr.Ret None
  | 16 -> Instr.Ret (Some (reg ()))
  | 17 ->
      let dst = reg () in
      let n = read_count r "phi-source" in
      let srcs = ref [] in
      for _ = 1 to n do
        let l = label () in
        let v = reg () in
        srcs := (l, v) :: !srcs
      done;
      Instr.Phi { dst; srcs = List.rev !srcs }
  | b -> fail "bad instruction tag %d at offset %d" b r.pos

(* ---- functions and programs ------------------------------------------- *)

let write_func buf (f : Cfg.func) =
  write_string buf f.Cfg.name;
  write_int buf f.Cfg.n_params;
  write_int buf f.Cfg.entry;
  write_int buf f.Cfg.next_reg;
  write_int buf f.Cfg.next_instr_id;
  write_int buf f.Cfg.next_label;
  (* The class table in ascending register order, so the encoding is a
     pure function of content (the re-encode-is-byte-identical
     contract). *)
  write_int buf (Cfg.Classes.length f.Cfg.reg_cls);
  Cfg.Classes.fold
    (fun r c () ->
      write_int buf r;
      Buffer.add_char buf
        (match c with Reg.Int_class -> '\000' | Reg.Float_class -> '\001'))
    f.Cfg.reg_cls ();
  write_int buf (List.length f.Cfg.blocks);
  List.iter
    (fun (b : Cfg.block) ->
      write_int buf b.Cfg.label;
      write_int buf (Array.length b.Cfg.instrs);
      Array.iter
        (fun (i : Instr.t) ->
          write_int buf i.Instr.id;
          write_kind buf i.Instr.kind)
        b.Cfg.instrs)
    f.Cfg.blocks

let max_counter = 1 lsl 20

let read_func r : Cfg.func =
  let name = read_string r in
  let n_params = read_int r in
  let entry = read_int r in
  let counter what =
    let v = read_int r in
    if v < 0 || v > max_counter then
      fail "%s %d outside [0, %d] at offset %d" what v max_counter r.pos;
    v
  in
  let next_reg = counter "next_reg" in
  let next_instr_id = counter "next_instr_id" in
  let next_label = counter "next_label" in
  if entry < 0 || entry >= next_label then
    fail "entry label %d outside [0, %d) at offset %d" entry next_label r.pos;
  (* The table takes a byte per register up to the largest id it
     names, so that id is bounded by the entry count (and so by the
     frame's size): [fresh_reg] numbers registers densely from
     [Reg.first_virtual] and records a class for each. *)
  let n_classes = read_count r "class" in
  let reg_cls = Cfg.Classes.create n_classes in
  for _ = 1 to n_classes do
    let reg = read_id r "register" next_reg in
    if Reg.is_phys reg then
      fail "class entry for physical register %d at offset %d" reg r.pos;
    if reg >= Reg.first_virtual + n_classes then
      fail "class entry for register %d beyond %d entries at offset %d" reg
        n_classes r.pos;
    match read_byte r with
    | 0 -> Cfg.Classes.add reg_cls reg Reg.Int_class
    | 1 -> Cfg.Classes.add reg_cls reg Reg.Float_class
    | b -> fail "bad register class %d at offset %d" b r.pos
  done;
  let n_blocks = read_count r "block" in
  let read_block () =
    let label = read_id r "label" next_label in
    let n = read_count r "instruction" in
    let instrs = Array.make n Instr.dummy in
    for i = 0 to n - 1 do
      let id = read_id r "instruction id" next_instr_id in
      let kind = read_kind ~next_reg ~next_label r in
      instrs.(i) <- { Instr.id; kind }
    done;
    { Cfg.label; instrs }
  in
  let blocks = ref [] in
  for _ = 1 to n_blocks do
    blocks := read_block () :: !blocks
  done;
  let f =
    {
      Cfg.name;
      entry;
      blocks = List.rev !blocks;
      n_params;
      reg_cls;
      next_reg;
      next_instr_id;
      next_label;
      numbering = None;
    }
  in
  (* Every structural invariant (terminators, unique labels, entry
     first, branch targets and phi sources that exist), so a malformed
     frame is a codec error, never a crash downstream or a cached
     reply. *)
  match Cfg.validate f with
  | Ok () -> f
  | Error msg -> fail "%s, function ending at offset %d" msg r.pos

let magic = "PDGC1"

let write_program buf (p : Cfg.program) =
  Buffer.add_string buf magic;
  write_string buf p.Cfg.main;
  write_int buf (List.length p.Cfg.funcs);
  List.iter (write_func buf) p.Cfg.funcs

let read_program r : Cfg.program =
  let m = String.length magic in
  if
    r.pos + m > String.length r.src
    || not (String.equal (String.sub r.src r.pos m) magic)
  then fail "bad program magic at offset %d" r.pos;
  r.pos <- r.pos + m;
  let main = read_string r in
  let n = read_count r "function" in
  let funcs = ref [] in
  for _ = 1 to n do
    funcs := read_func r :: !funcs
  done;
  { Cfg.funcs = List.rev !funcs; main }
