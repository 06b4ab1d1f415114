type phase = Ssa | Prepared | Machine

let phase_label = function
  | Ssa -> "ssa"
  | Prepared -> "prepared"
  | Machine -> "machine"

type ctx = {
  machine : Machine.t;
  result : Alloc_common.result option;
  live : Liveness.t Lazy.t;
  reaching : Reaching.t Lazy.t;
  analysis : Alloc_common.analysis Lazy.t;
}

let ctx ~machine ?result fn =
  {
    machine;
    result;
    live = lazy (Liveness.compute fn);
    reaching = lazy (Reaching.compute fn);
    analysis = lazy (Alloc_common.analyze ~loops:(Loops.compute fn) fn);
  }

type t = {
  name : string;
  phase : phase;
  doc : string;
  run : ctx -> Cfg.func -> Diagnostic.t list;
}

let v ~name ~phase ~doc run = { name; phase; doc; run }
