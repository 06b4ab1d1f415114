type compact = {
  tbl : int Reg.Tbl.t;
  mutable regs : Reg.t array;
  mutable n : int;
}

let create () = { tbl = Reg.Tbl.create 64; regs = Array.make 16 0; n = 0 }

let index c r =
  match Reg.Tbl.find_opt c.tbl r with
  | Some i -> i
  | None ->
      let i = c.n in
      if i >= Array.length c.regs then begin
        let bigger = Array.make (2 * Array.length c.regs) 0 in
        Array.blit c.regs 0 bigger 0 c.n;
        c.regs <- bigger
      end;
      c.regs.(i) <- r;
      c.n <- i + 1;
      Reg.Tbl.replace c.tbl r i;
      i

let find c r = Reg.Tbl.find_opt c.tbl r
let size c = c.n

let reg_at c i =
  if i < 0 || i >= c.n then invalid_arg "Regbits.reg_at: index out of range";
  c.regs.(i)

let of_func (f : Cfg.func) =
  let c = create () in
  Cfg.iter_instrs f (fun _ i ->
      let kind = i.Instr.kind in
      List.iter (fun r -> ignore (index c r)) (Instr.defs kind);
      List.iter (fun r -> ignore (index c r)) (Instr.uses kind));
  c

module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let length v = v.len

  let get v i =
    if i < 0 || i >= v.len then invalid_arg "Regbits.Vec.get";
    v.data.(i)

  let push v x =
    if v.len >= Array.length v.data then begin
      let cap = max 4 (2 * Array.length v.data) in
      let bigger = Array.make cap 0 in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let remove_value v x =
    let rec find i = if i >= v.len then -1 else if v.data.(i) = x then i else find (i + 1) in
    let i = find 0 in
    if i < 0 then false
    else begin
      v.data.(i) <- v.data.(v.len - 1);
      v.len <- v.len - 1;
      true
    end

  let iter v f =
    for i = 0 to v.len - 1 do
      f v.data.(i)
    done

  let fold v ~init ~f =
    let acc = ref init in
    for i = 0 to v.len - 1 do
      acc := f !acc v.data.(i)
    done;
    !acc

  let copy v = { data = Array.sub v.data 0 v.len; len = v.len }
  let clear v = v.len <- 0
end

module Set = struct
  (* [words] may be shorter than another set's: indices beyond the
     array are absent.  All operations treat missing words as zero. *)
  type t = { mutable words : int array }

  let bits_per_word = Sys.int_size
  let nwords bits = if bits <= 0 then 0 else ((bits - 1) / bits_per_word) + 1
  let create n = { words = Array.make (nwords n) 0 }
  let copy s = { words = Array.copy s.words }
  let clear s = Array.fill s.words 0 (Array.length s.words) 0

  let grow s needed_words =
    let cap = max needed_words (2 * Array.length s.words) in
    let bigger = Array.make cap 0 in
    Array.blit s.words 0 bigger 0 (Array.length s.words);
    s.words <- bigger

  let mem s i =
    let w = i / bits_per_word in
    w < Array.length s.words
    && s.words.(w) land (1 lsl (i mod bits_per_word)) <> 0

  let add s i =
    let w = i / bits_per_word in
    if w >= Array.length s.words then grow s (w + 1);
    s.words.(w) <- s.words.(w) lor (1 lsl (i mod bits_per_word))

  let remove s i =
    let w = i / bits_per_word in
    if w < Array.length s.words then
      s.words.(w) <- s.words.(w) land lnot (1 lsl (i mod bits_per_word))

  let is_empty s = Array.for_all (fun w -> w = 0) s.words

  let popcount w =
    let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
    go 0 w

  let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

  let equal a b =
    let la = Array.length a.words and lb = Array.length b.words in
    let common = min la lb in
    let rec eq i =
      if i < common then a.words.(i) = b.words.(i) && eq (i + 1)
      else begin
        let rest, from = if la > lb then (a.words, common) else (b.words, common) in
        let rec zero j =
          j >= Array.length rest || (rest.(j) = 0 && zero (j + 1))
        in
        zero from
      end
    in
    eq 0

  let union_into ~src ~dst =
    if Array.length src.words > Array.length dst.words then
      grow dst (Array.length src.words);
    let changed = ref false in
    for w = 0 to Array.length src.words - 1 do
      let old = dst.words.(w) in
      let nw = old lor src.words.(w) in
      if nw <> old then begin
        dst.words.(w) <- nw;
        changed := true
      end
    done;
    !changed

  let union a b =
    let c = copy a in
    ignore (union_into ~src:b ~dst:c);
    c

  (* Bit position of a single-bit word.  2 is a primitive root modulo
     67, so [2^i mod 67] is distinct for i in 0 .. 61 and one table
     load replaces a shift loop; bit 62 is OCaml's sign bit, where
     [w land (-w)] is [min_int], so it is the one negative case. *)
  let bit_of_residue =
    let tbl = Array.make 67 0 in
    for i = 0 to bits_per_word - 2 do
      tbl.((1 lsl i) mod 67) <- i
    done;
    tbl

  let bit_index lsb =
    if lsb < 0 then bits_per_word - 1
    else Array.unsafe_get bit_of_residue (lsb mod 67)

  (* Members of word [w] whose bits are [bits], ascending. *)
  let iter_word w bits f =
    let bits = ref bits in
    while !bits <> 0 do
      let lsb = !bits land - !bits in
      f ((w * bits_per_word) + bit_index lsb);
      bits := !bits lxor lsb
    done

  let iter s f =
    for w = 0 to Array.length s.words - 1 do
      let bits = s.words.(w) in
      if bits <> 0 then iter_word w bits f
    done

  let remove_inter ~src ~dst f =
    for w = 0 to min (Array.length src.words) (Array.length dst.words) - 1 do
      let common = dst.words.(w) land src.words.(w) in
      if common <> 0 then begin
        dst.words.(w) <- dst.words.(w) lxor common;
        iter_word w common f
      end
    done

  let fold s ~init ~f =
    let acc = ref init in
    iter s (fun i -> acc := f !acc i);
    !acc

  let to_reg_set c s =
    fold s ~init:Reg.Set.empty ~f:(fun acc i -> Reg.Set.add (reg_at c i) acc)

  let of_reg_set c rs =
    let s = create (size c) in
    Reg.Set.iter (fun r -> add s (index c r)) rs;
    s
end
