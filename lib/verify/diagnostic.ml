type severity = Error | Warning

type reason =
  | Clobbered_value
  | Undefined_value
  | Volatile_across_call
  | Slot_mismatch
  | Bad_pair
  | Bad_callee_save
  | Bad_calling_convention
  | Not_allocatable
  | Limited_miss
  | Structure
  | Dead_code
  | Pressure
  | Bad_preference

type t = {
  func : string;
  block : Instr.label;
  index : int;
  instr : int;
  reg : Reg.t option;
  severity : severity;
  reason : reason;
  message : string;
}

let v ?(block = -1) ?(index = -1) ?(instr = -1) ?reg ?(severity = Error) ~func
    reason message =
  { func; block; index; instr; reg; severity; reason; message }

let reason_label = function
  | Clobbered_value -> "clobbered-value"
  | Undefined_value -> "undefined-value"
  | Volatile_across_call -> "volatile-across-call"
  | Slot_mismatch -> "slot-mismatch"
  | Bad_pair -> "bad-pair"
  | Bad_callee_save -> "bad-callee-save"
  | Bad_calling_convention -> "bad-calling-convention"
  | Not_allocatable -> "not-allocatable"
  | Limited_miss -> "limited-miss"
  | Structure -> "structure"
  | Dead_code -> "dead-code"
  | Pressure -> "pressure"
  | Bad_preference -> "bad-preference"

let errors ds = List.filter (fun d -> d.severity = Error) ds

let compare a b =
  let c = String.compare a.func b.func in
  if c <> 0 then c
  else
    let c = Int.compare a.block b.block in
    if c <> 0 then c
    else
      let c = Int.compare a.index b.index in
      if c <> 0 then c
      else
        let c = String.compare (reason_label a.reason) (reason_label b.reason) in
        if c <> 0 then c
        else
          let c = Int.compare a.instr b.instr in
          if c <> 0 then c
          else
            let c = Option.compare Reg.compare a.reg b.reg in
            if c <> 0 then c
            else
              let c = Stdlib.compare a.severity b.severity in
              if c <> 0 then c else String.compare a.message b.message

let normalize ds = List.sort_uniq compare ds

let pp ppf d =
  Format.fprintf ppf "[%s] %s"
    (match d.severity with Error -> "error" | Warning -> "warning")
    d.func;
  if d.block >= 0 then Format.fprintf ppf ", block L%d" d.block;
  if d.index >= 0 then Format.fprintf ppf ", instr %d" d.index;
  if d.instr >= 0 then Format.fprintf ppf " (id %d)" d.instr;
  (match d.reg with
  | Some r -> Format.fprintf ppf ", %s" (Reg.to_string r)
  | None -> ());
  Format.fprintf ppf ": %s: %s" (reason_label d.reason) d.message

let report ppf ds =
  List.iter (fun d -> Format.fprintf ppf "%a@." pp d) ds
