type profile = {
  name : string;
  seed : int;
  n_funcs : int;
  blocks : int * int;
  stmts : int * int;
  max_loop_depth : int;
  call_density : float;
  float_ratio : float;
  paired_ratio : float;
  limited_ratio : float;
  pressure : int;
}

let default =
  {
    name = "default";
    seed = 42;
    n_funcs = 6;
    blocks = (3, 6);
    stmts = (2, 5);
    max_loop_depth = 2;
    call_density = 0.12;
    float_ratio = 0.2;
    paired_ratio = 0.15;
    limited_ratio = 0.08;
    pressure = 10;
  }

(* Generation state for one function: pools of live variables. *)
type pool = {
  b : Builder.t;
  rng : Rng.t;
  mutable ints : Reg.t list;
  mutable floats : Reg.t list;
  mutable pinned : Reg.t list;
      (* long-lived integer accumulators: initialized at entry, read and
         reassigned throughout, folded into the return value — they are
         what sustains register pressure across the whole body *)
  base : Reg.t; (* heap base pointer *)
  callees : (string * int * int) list; (* name, int params, float params *)
  prof : profile;
}

let trim p =
  let cap = max 2 p.prof.pressure in
  let keep l = if List.length l > cap then List.filteri (fun i _ -> i < cap) l
    else l in
  p.ints <- keep p.ints;
  p.floats <- keep p.floats

let new_int p r =
  p.ints <- r :: p.ints;
  trim p

let new_float p r =
  p.floats <- r :: p.floats;
  trim p

let pick_int p =
  (* Mix short-lived pool values with the pinned accumulators. *)
  if p.pinned <> [] && Rng.bool p.rng 0.4 then Rng.pick p.rng p.pinned
  else Rng.pick p.rng p.ints

let pick_float p =
  match p.floats with
  | [] ->
      let r = Builder.fconst p.b 1.5 in
      new_float p r;
      r
  | l -> Rng.pick p.rng l

let int_binops = Instr.[ Add; Sub; Mul; And; Or; Xor; Add; Sub ]
let float_binops = Instr.[ Add; Sub; Mul; Add; Mul ]

(* One straight-line statement into the current block. *)
let emit_stmt p =
  let r = p.rng in
  let choice = Rng.int r 100 in
  let call_cut = int_of_float (p.prof.call_density *. 100.0) in
  let paired_cut = call_cut + int_of_float (p.prof.paired_ratio *. 100.0) in
  let limited_cut = paired_cut + int_of_float (p.prof.limited_ratio *. 100.0) in
  let store_cut = limited_cut + 10 in
  let float_cut = store_cut + int_of_float (p.prof.float_ratio *. 35.0) in
  if choice < call_cut && p.callees <> [] then begin
    let name, ni, nf = Rng.pick r p.callees in
    let args =
      List.init ni (fun _ -> pick_int p)
      @ List.init nf (fun _ -> pick_float p)
    in
    let dst = Builder.call p.b name args in
    new_int p dst
  end
  else if choice < paired_cut then begin
    (* Two adjacent loads at consecutive word offsets: a paired-load
       candidate.  Occasionally floating point, like the mpegaudio
       kernels the paper highlights. *)
    let off = Rng.int r 16 * 8 in
    let cls =
      if Rng.bool r p.prof.float_ratio then Reg.Float_class else Reg.Int_class
    in
    let lo = Builder.load p.b ~cls ~base:p.base ~offset:off () in
    let hi = Builder.load p.b ~cls ~base:p.base ~offset:(off + 8) () in
    (match cls with
    | Reg.Int_class ->
        let s = Builder.binop p.b Instr.Add lo hi in
        new_int p s
    | Reg.Float_class ->
        let s = Builder.binop p.b Instr.Add lo hi in
        new_float p s)
  end
  else if choice < limited_cut then begin
    let v = Builder.limited p.b (pick_int p) in
    new_int p v
  end
  else if choice < store_cut then begin
    let off = Rng.int r 32 * 8 in
    if Rng.bool r 0.5 then
      Builder.store p.b ~src:(pick_int p) ~base:p.base ~offset:off
    else begin
      let v = Builder.load p.b ~base:p.base ~offset:off () in
      new_int p v
    end
  end
  else if choice < float_cut then begin
    let op = Rng.pick r float_binops in
    let a = pick_float p and b = pick_float p in
    let v = Builder.binop p.b op a b in
    if Rng.bool r 0.3 then begin
      let i = Builder.unop p.b Instr.Ftoi v in
      new_int p i
    end
    else new_float p v
  end
  else begin
    let op = Rng.pick r int_binops in
    let a = pick_int p and b = pick_int p in
    if Rng.bool r 0.35 then
      (* Reassign an existing variable: keeps the code non-SSA so the
         renumber phase has real webs to build. *)
      let dst = pick_int p in
      Builder.emit p.b (Instr.Binop { op; dst; src1 = a; src2 = b })
    else begin
      let v = Builder.binop p.b op a b in
      new_int p v
    end
  end

let emit_straight p =
  let lo, hi = p.prof.stmts in
  let n = Rng.range p.rng lo hi in
  for _ = 1 to n do
    emit_stmt p
  done

(* Values created inside a loop body or a branch arm are not defined on
   every path to the code after it; scoping the pool keeps generated
   programs fully defined (flow out of the region goes through
   reassignments of outer variables instead). *)
let scoped p f =
  let ints = p.ints and floats = p.floats in
  f ();
  p.ints <- ints;
  p.floats <- floats

(* A counted loop: body runs a small fixed number of times. *)
let rec emit_loop p depth =
  let b = p.b in
  let trip = Rng.range p.rng 2 6 in
  let i0 = Builder.iconst b 0 in
  let n = Builder.iconst b trip in
  let counter = Builder.reg b Reg.Int_class in
  Builder.move b ~dst:counter ~src:i0;
  let header = Builder.new_block b in
  let body = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.jump b header;
  Builder.switch_to b header;
  let c = Builder.cmp b Instr.Lt counter n in
  Builder.branch b c ~ifso:body ~ifnot:exit;
  Builder.switch_to b body;
  let inner = ref counter in
  scoped p (fun () ->
      emit_straight p;
      if depth > 1 && Rng.bool p.rng 0.4 then emit_loop p (depth - 1);
      inner := pick_int p);
  (* Accumulate a body-computed value into an outer variable: outer
     values stay live around the back edge (and across any calls
     inside), and the body's work remains observable. *)
  let acc = pick_int p in
  Builder.emit b
    (Instr.Binop { op = Instr.Add; dst = acc; src1 = acc; src2 = !inner });
  let one = Builder.iconst b 1 in
  Builder.emit b
    (Instr.Binop { op = Instr.Add; dst = counter; src1 = counter; src2 = one });
  Builder.jump b header;
  Builder.switch_to b exit

let emit_diamond p =
  let b = p.b in
  let c = Builder.cmp b Instr.Lt (pick_int p) (pick_int p) in
  let t = Builder.new_block b in
  let f = Builder.new_block b in
  let join = Builder.new_block b in
  (* Reassign shared variables in both arms: classic phi/copy pressure
     after an SSA round trip. *)
  let shared = pick_int p in
  Builder.branch b c ~ifso:t ~ifnot:f;
  Builder.switch_to b t;
  scoped p (fun () ->
      emit_straight p;
      let tv = pick_int p in
      Builder.move b ~dst:shared ~src:tv);
  Builder.jump b join;
  Builder.switch_to b f;
  scoped p (fun () ->
      emit_straight p;
      let fv = pick_int p in
      Builder.move b ~dst:shared ~src:fv);
  Builder.jump b join;
  Builder.switch_to b join

let gen_func prof rng name ~index ~callees ~n_int_params ~n_float_params =
  let b =
    Builder.create ~name ~n_params:(n_int_params + n_float_params)
  in
  let pool =
    {
      b;
      rng;
      ints = [];
      floats = [];
      pinned = [];
      base = Builder.reg b Reg.Int_class;
      callees;
      prof;
    }
  in
  (* Parameters first (entry block), then the heap base. *)
  let idx = ref 0 in
  for _ = 1 to n_int_params do
    let r = Builder.reg b Reg.Int_class in
    Builder.param b r !idx;
    incr idx;
    new_int pool r
  done;
  for _ = 1 to n_float_params do
    let r = Builder.reg b Reg.Float_class in
    Builder.param b r !idx;
    incr idx;
    new_float pool r
  done;
  Builder.emit b (Instr.Const { dst = pool.base; value = Int64.of_int (index * 256) });
  if pool.ints = [] then begin
    let r = Builder.iconst b (7 + index) in
    new_int pool r
  end;
  (* Pressure accumulators: [pressure] values live from entry to the
     final fold. *)
  pool.pinned <-
    List.init (max 0 (prof.pressure - 2)) (fun i ->
        Builder.iconst b (i * 3 + index));
  let lo, hi = prof.blocks in
  let segments = Rng.range rng lo hi in
  for _ = 1 to segments do
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        if prof.max_loop_depth > 0 then emit_loop pool prof.max_loop_depth
        else emit_straight pool
    | 4 | 5 | 6 -> emit_diamond pool
    | _ -> emit_straight pool
  done;
  (* Fold the live pool into one return value so everything computed
     matters to the observable result. *)
  let ret =
    List.fold_left
      (fun acc v -> Builder.binop b Instr.Add acc v)
      (List.hd pool.ints)
      (List.tl pool.ints @ pool.pinned)
  in
  let ret =
    List.fold_left
      (fun acc v ->
        let i = Builder.unop b Instr.Ftoi v in
        Builder.binop b Instr.Add acc i)
      ret pool.floats
  in
  Builder.ret b (Some ret);
  Builder.finish b

let generate prof =
  let rng = Rng.create prof.seed in
  (* Decide signatures up front.  The call graph is a DAG stratified
     into a handful of levels — a function only calls functions of a
     strictly deeper level — so calls inside loops cannot compound into
     an exponential dynamic instruction count. *)
  let n_levels = 4 in
  let level i = i * n_levels / max 1 prof.n_funcs in
  let sigs =
    List.init prof.n_funcs (fun i ->
        let name = if i = 0 then "main" else Printf.sprintf "%s_f%d" prof.name i in
        let ni = if i = 0 then 0 else Rng.range rng 1 3 in
        let nf =
          if i = 0 then 0
          else if Rng.bool rng prof.float_ratio then 1
          else 0
        in
        (name, ni, nf))
  in
  let arr = Array.of_list sigs in
  let funcs =
    List.mapi
      (fun i (name, ni, nf) ->
        let callees =
          List.filteri (fun j _ -> level j > level i) (Array.to_list arr)
        in
        gen_func prof (Rng.split rng) name ~index:i ~callees ~n_int_params:ni
          ~n_float_params:nf)
      sigs
  in
  { Cfg.funcs; main = "main" }
