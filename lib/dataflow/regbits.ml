(* [phys] maps a physical register id to its index, [virt] a virtual
   one offset by [base]; [-1] marks an absent id.  [virt] is a window
   over the span of virtual ids interned so far, grown in either
   direction while the numbering is built (and never after): a
   function's virtual ids are dense (below its [next_reg]), and after
   web renumbering they start far above [Reg.first_virtual], so a
   window from 0 would be half empty. *)
type compact = {
  phys : int array;
  mutable base : int;
  mutable virt : int array;
  mutable regs : Reg.t array;
  mutable n : int;
}

(* Construction, the only code that grows a numbering, runs [empty],
   [cover] and [intern]. *)
let empty () =
  {
    phys = Array.make Reg.first_virtual (-1);
    base = 0;
    virt = [||];
    regs = Array.make 16 0;
    n = 0;
  }

(* Widen [virt] to cover virtual id [r], with half its length again as
   slack on the side it grows. *)
let cover c r =
  let len = Array.length c.virt in
  let lo, hi =
    if len = 0 then (r, r + 64)
    else if r < c.base then (max Reg.first_virtual (r - (len / 2)), c.base + len)
    else (c.base, r + 1 + (len / 2))
  in
  let bigger = Array.make (hi - lo) (-1) in
  if len > 0 then Array.blit c.virt 0 bigger (c.base - lo) len;
  c.base <- lo;
  c.virt <- bigger

let intern c r =
  if r < 0 then invalid_arg "Regbits: negative register id";
  let i = c.n in
  if i >= Array.length c.regs then begin
    let bigger = Array.make (2 * Array.length c.regs) 0 in
    Array.blit c.regs 0 bigger 0 c.n;
    c.regs <- bigger
  end;
  c.regs.(i) <- r;
  c.n <- i + 1;
  if r < Reg.first_virtual then c.phys.(r) <- i
  else begin
    let o = r - c.base in
    if o < 0 || o >= Array.length c.virt then cover c r;
    c.virt.(r - c.base) <- i
  end

let find_index c r =
  if r >= Reg.first_virtual then
    let o = r - c.base in
    if o >= 0 && o < Array.length c.virt then Array.unsafe_get c.virt o else -1
  else if r >= 0 then Array.unsafe_get c.phys r
  else -1

let index c r =
  let i = find_index c r in
  if i >= 0 then i else invalid_arg "Regbits.index: register not in the numbering"

let find c r =
  let i = find_index c r in
  if i >= 0 then Some i else None

let size c = c.n

let reg_at c i =
  if i < 0 || i >= c.n then invalid_arg "Regbits.reg_at: index out of range";
  c.regs.(i)

(* A numbering of the registers [fill] hands to its argument, each
   numbered on its first appearance. *)
let build fill =
  let c = empty () in
  fill (fun r -> if find_index c r < 0 then intern c r);
  c

let of_regs regs = build (fun add -> List.iter add regs)

let of_func (f : Cfg.func) =
  build (fun add ->
      Cfg.iter_instrs f (fun _ i ->
          let kind = i.Instr.kind in
          List.iter add (Instr.defs kind);
          List.iter add (Instr.uses kind)))

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

  let union_inter_into ~src ~mask ~dst =
    let n = min (Array.length src.words) (Array.length mask.words) in
    if n > Array.length dst.words then grow dst n;
    let d = dst.words in
    for w = 0 to n - 1 do
      d.(w) <- d.(w) lor (src.words.(w) land mask.words.(w))
    done

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

  let min_elt s =
    let n = Array.length s.words in
    let rec go w =
      if w >= n then raise Not_found
      else
        let bits = s.words.(w) in
        if bits = 0 then go (w + 1)
        else (w * bits_per_word) + bit_index (bits land -bits)
    in
    go 0

  let iter s f =
    for w = 0 to Array.length s.words - 1 do
      let bits = s.words.(w) in
      if bits <> 0 then iter_word w bits f
    done

  let fold s ~init ~f =
    let acc = ref init in
    iter s (fun i -> acc := f !acc i);
    !acc

  let symmetrize rows =
    for i = 0 to Array.length rows - 1 do
      let wi = i / bits_per_word and bi = 1 lsl (i mod bits_per_word) in
      let words = rows.(i).words in
      for w = 0 to Array.length words - 1 do
        let bits = ref words.(w) in
        while !bits <> 0 do
          let lsb = !bits land - !bits in
          let r = rows.((w * bits_per_word) + bit_index lsb).words in
          r.(wi) <- r.(wi) lor bi;
          bits := !bits lxor lsb
        done
      done
    done

  let to_reg_set c s =
    fold s ~init:Reg.Set.empty ~f:(fun acc i -> Reg.Set.add (reg_at c i) acc)
end

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

  (* First position in ascending [v] holding a value >= [x]. *)
  let search v x =
    let lo = ref 0 and hi = ref v.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v.data.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo

  let insert_sorted v x =
    let i = search v x in
    if i >= v.len || v.data.(i) <> x then begin
      push v x;
      Array.blit v.data i v.data (i + 1) (v.len - 1 - i);
      v.data.(i) <- x
    end

  let remove_sorted v x =
    let i = search v x in
    if i < v.len && v.data.(i) = x then begin
      Array.blit v.data (i + 1) v.data i (v.len - 1 - i);
      v.len <- v.len - 1
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

  let of_set s =
    let data = Array.make (Set.cardinal s) 0 in
    let len = ref 0 in
    Set.iter s (fun i ->
        data.(!len) <- i;
        incr len);
    { data; len = !len }
end
