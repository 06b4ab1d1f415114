type t = { max_int : int; max_float : int }

let certified ~k t = t.max_int <= k && t.max_float <= k

let pp ppf t =
  Format.fprintf ppf "maxlive int=%d float=%d" t.max_int t.max_float

let compute ?live (fn : Cfg.func) =
  let live = match live with Some l -> l | None -> Liveness.compute fn in
  let cpt = Liveness.compact live in
  let is_float =
    Array.init (Regbits.size cpt) (fun i ->
        let r = Regbits.reg_at cpt i in
        let cls = if Reg.is_virtual r then Cfg.cls_of fn r else Reg.phys_cls r in
        cls = Reg.Float_class)
  in
  let max_int = ref 0 and max_float = ref 0 in
  let measure set =
    let ints = ref 0 and floats = ref 0 in
    Regbits.Set.iter set (fun i ->
        if is_float.(i) then incr floats else incr ints);
    if !ints > !max_int then max_int := !ints;
    if !floats > !max_float then max_float := !floats
  in
  List.iter
    (fun (b : Cfg.block) ->
      measure (Liveness.live_in_bits live b.Cfg.label);
      Liveness.iter_block_backward_bits live b ~f:(fun ~live_out _ ->
          measure live_out))
    fn.Cfg.blocks;
  { max_int = !max_int; max_float = !max_float }
