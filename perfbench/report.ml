(* What a run reports, and how it is printed: one line per metric with
   its unit, the failures, then the result as one JSON object on the
   last line of standard output. *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

type outcome = {
  attempted : int;  (** operations attempted *)
  failures : string list;  (** one line per failed operation or check *)
  metrics : metric list;  (** the metrics the JSON result carries *)
  notes : metric list;  (** printed, not in the JSON result *)
  listing : string list;  (** printed, e.g. every verifier error *)
}

(* Full precision, and never a non-finite JSON number. *)
let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Report.number: non-finite metric"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let line ~workload (x : metric) =
  Printf.printf "%s  %-32s %22s  %s\n" workload x.name (number x.value) x.unit

let print ~workload o =
  List.iter print_endline o.listing;
  List.iter (line ~workload) o.metrics;
  List.iter (line ~workload) o.notes;
  let failed = List.length o.failures in
  List.iteri
    (fun i f -> if i < 50 then Printf.printf "FAILED: %s\n" f)
    o.failures;
  if failed > 50 then Printf.printf "FAILED: ... and %d more\n" (failed - 50);
  Printf.printf "%s  failed/attempted = %d/%d\n" workload failed o.attempted;
  let metrics =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
             (number x.value) (json_string x.unit))
         o.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) o.attempted failed metrics
