type regs = { v0 : Reg.t; v1 : Reg.t; v2 : Reg.t; v3 : Reg.t; v4 : Reg.t }

let machine =
  {
    Machine.name = "fig7-k3";
    k = 3;
    n_volatile = 2;
    n_arg_regs = 1;
    ret_index = 0;
    limited_size = 2;
    pair_rule = Machine.Parity;
  }

(* Fig. 7(a), with the paper's arg0 made explicit as physical r0 and
   word offsets scaled to our 8-byte words:

     i0:  v0 = [arg0]
     L1:  v1 = [v0]
          v2 = [v0+8]
          v3 = v0
          v4 = v1 + v2
          arg0 = v3
          call g(arg0)
          v0 = v4 + 1
          if v0 != 0 goto L1
     L2:  ret *)
let build () =
  let b = Builder.create ~name:"fig7" ~n_params:0 in
  let arg0 = Reg.phys Reg.Int_class 0 in
  let v0 = Builder.reg b Reg.Int_class in
  let v1 = Builder.reg b Reg.Int_class in
  let v2 = Builder.reg b Reg.Int_class in
  let v3 = Builder.reg b Reg.Int_class in
  let v4 = Builder.reg b Reg.Int_class in
  Builder.emit b (Instr.Load { dst = v0; base = arg0; offset = 0 });
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  Builder.jump b l1;
  Builder.switch_to b l1;
  Builder.emit b (Instr.Load { dst = v1; base = v0; offset = 0 });
  Builder.emit b (Instr.Load { dst = v2; base = v0; offset = 8 });
  Builder.move b ~dst:v3 ~src:v0;
  Builder.emit b (Instr.Binop { op = Instr.Add; dst = v4; src1 = v1; src2 = v2 });
  Builder.move b ~dst:arg0 ~src:v3;
  Builder.emit b (Instr.Call { dst = None; callee = "g"; args = [ arg0 ] });
  let one = Builder.iconst b 1 in
  Builder.emit b (Instr.Binop { op = Instr.Add; dst = v0; src1 = v4; src2 = one });
  let zero = Builder.iconst b 0 in
  let c = Builder.cmp b Instr.Ne v0 zero in
  Builder.branch b c ~ifso:l1 ~ifnot:l2;
  Builder.switch_to b l2;
  Builder.ret b None;
  (Builder.finish b, { v0; v1; v2; v3; v4 })

type artifacts = {
  func : Cfg.func;
  regs : regs;
  strength : Strength.t;
  rpg : Rpg.t;
  cpg3 : Cpg.t;
  cpg4 : Cpg.t;
  assignment : (Reg.t * Reg.t) list;
}

let simplify_for k g costs =
  Simplify.run Simplify.Optimistic ~k g () ~spill_choice:(fun blocked ->
      match blocked with
      | [] -> invalid_arg "fig7: no spill candidates"
      | first :: rest ->
          List.fold_left
            (fun acc r ->
              if
                Spill_cost.spill_cost costs r < Spill_cost.spill_cost costs acc
              then r
              else acc)
            first rest)

let run () =
  let fn, r0s = build () in
  let webs = Webs.run fn in
  let fn = webs.Webs.func in
  (* Map the original names to their web registers (each of v0..v4 is a
     single web). *)
  let web_of orig =
    Reg.Tbl.fold
      (fun w o acc -> if Reg.equal o orig then w else acc)
      webs.Webs.origin orig
  in
  let regs =
    {
      v0 = web_of r0s.v0;
      v1 = web_of r0s.v1;
      v2 = web_of r0s.v2;
      v3 = web_of r0s.v3;
      v4 = web_of r0s.v4;
    }
  in
  let live = Liveness.compute fn in
  let g = Igraph.build fn live in
  let strength = Strength.create fn in
  let rpg = Rpg.build ~cpt:(Igraph.compact g) machine fn strength in
  let costs = Spill_cost.compute fn in
  let simp3 = simplify_for machine.Machine.k g costs in
  let cpg3 = Cpg.build ~k:machine.Machine.k g simp3 in
  let simp4 = simplify_for 4 g costs in
  let cpg4 = Cpg.build ~k:4 g simp4 in
  let sel =
    Pdgc_select.run machine g rpg cpg3 strength
      (Pdgc_select.params ~spill_risk:simp3.Simplify.potential_spills ())
  in
  let assignment =
    List.map
      (fun w ->
        match Reg.Tbl.find_opt sel.Pdgc_select.colors w with
        | Some c -> (w, c)
        | None -> invalid_arg "fig7: allocation spilled unexpectedly")
      [ regs.v0; regs.v1; regs.v2; regs.v3; regs.v4 ]
  in
  { func = fn; regs; strength; rpg; cpg3; cpg4; assignment }

let print ppf () =
  let a = run () in
  Format.fprintf ppf "@[<v>== Fig. 7(a): code ==@,%a@,@," Cfg.pp_func a.func;
  Format.fprintf ppf "== Fig. 7(c): Register Preference Graph ==@,%a@,@," Rpg.pp
    a.rpg;
  Format.fprintf ppf "== Fig. 7(e): Coloring Precedence Graph (k=3) ==@,%a@,@,"
    Cpg.pp a.cpg3;
  Format.fprintf ppf "== Fig. 7(f): Coloring Precedence Graph (k>=4) ==@,%a@,@,"
    Cpg.pp a.cpg4;
  Format.fprintf ppf "== Fig. 7(g): assignment ==@,";
  let name_of =
    [
      (a.regs.v0, "v0"); (a.regs.v1, "v1"); (a.regs.v2, "v2");
      (a.regs.v3, "v3"); (a.regs.v4, "v4");
    ]
  in
  List.iter
    (fun (w, c) ->
      Format.fprintf ppf "%s -> %s%s@,"
        (List.assoc w name_of) (Reg.to_string c)
        (if Machine.is_volatile machine c then " (volatile)"
         else " (non-volatile)"))
    a.assignment;
  Format.fprintf ppf "@]"
