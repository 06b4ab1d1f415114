type t = {
  func : Cfg.func;
  mutable order : Instr.label list; (* creation order, reversed *)
  bodies : (Instr.label, Instr.t list ref) Hashtbl.t;
  mutable current : Instr.label;
}

let create ~name ~n_params =
  let entry = 0 in
  let func = Cfg.create_func ~name ~n_params ~entry in
  let bodies = Hashtbl.create 16 in
  Hashtbl.replace bodies entry (ref []);
  { func; order = [ entry ]; bodies; current = entry }

let reg b cls = Cfg.fresh_reg b.func cls

let new_block b =
  let l = Cfg.fresh_label b.func in
  Hashtbl.replace b.bodies l (ref []);
  b.order <- l :: b.order;
  l

let switch_to b l =
  if not (Hashtbl.mem b.bodies l) then
    invalid_arg (Printf.sprintf "Builder.switch_to: unknown label L%d" l);
  b.current <- l

let emit b kind =
  let i = Cfg.instr b.func kind in
  let body = Hashtbl.find b.bodies b.current in
  body := i :: !body

let move b ~dst ~src = emit b (Instr.Move { dst; src })

let const b ?(cls = Reg.Int_class) value =
  let dst = reg b cls in
  emit b (Instr.Const { dst; value });
  dst

let iconst b v = const b (Int64.of_int v)
let fconst b v = const b ~cls:Reg.Float_class (Int64.bits_of_float v)

let unop b op src =
  let cls =
    match op with
    | Instr.Itof -> Reg.Float_class
    | Instr.Ftoi -> Reg.Int_class
    | Instr.Neg | Instr.Not -> Cfg.cls_of b.func src
  in
  let dst = reg b cls in
  emit b (Instr.Unop { op; dst; src });
  dst

let binop b op src1 src2 =
  let dst = reg b (Cfg.cls_of b.func src1) in
  emit b (Instr.Binop { op; dst; src1; src2 });
  dst

let cmp b op src1 src2 =
  let dst = reg b Reg.Int_class in
  emit b (Instr.Cmp { op; dst; src1; src2 });
  dst

let load b ?(cls = Reg.Int_class) ~base ~offset () =
  let dst = reg b cls in
  emit b (Instr.Load { dst; base; offset });
  dst

let store b ~src ~base ~offset = emit b (Instr.Store { src; base; offset })

let limited b src =
  let dst = reg b Reg.Int_class in
  emit b (Instr.Limited { dst; src });
  dst

let call b ?(cls = Reg.Int_class) callee args =
  let dst = reg b cls in
  emit b (Instr.Call { dst = Some dst; callee; args });
  dst

let call_void b callee args = emit b (Instr.Call { dst = None; callee; args })
let param b dst index = emit b (Instr.Param { dst; index })
let jump b l = emit b (Instr.Jump l)
let branch b cond ~ifso ~ifnot = emit b (Instr.Branch { cond; ifso; ifnot })
let ret b r = emit b (Instr.Ret r)

let finish b =
  let blocks =
    List.rev b.order
    |> List.filter_map (fun l ->
           let body = !(Hashtbl.find b.bodies l) in
           match body with
           | [] -> None
           | instrs ->
               let a = Array.of_list instrs in
               let n = Array.length a in
               (* [instrs] is in reverse emission order; flip in place. *)
               for i = 0 to (n / 2) - 1 do
                 let tmp = a.(i) in
                 a.(i) <- a.(n - 1 - i);
                 a.(n - 1 - i) <- tmp
               done;
               Some { Cfg.label = l; instrs = a })
  in
  let f = Cfg.with_blocks b.func blocks in
  match Cfg.validate f with
  | Ok () -> f
  | Error msg -> invalid_arg ("Builder.finish: " ^ msg)
