(* Static-analysis driver: run the built-in passes (Passes.all), the
   allocation verifier among them, over minilang files and
   generated-suite benchmarks, at every pipeline phase and across every
   registered allocator.

   Exit codes: 0 = clean (no error-severity diagnostics), 1 = errors
   found, 2 = bad usage / unknown input, pass or allocator.  `--json`
   emits machine-readable diagnostics for CI; output is bit-for-bit
   identical at any `--jobs` value (the @analyze alias enforces this
   at jobs=1 vs jobs=4). *)

let usage ppf =
  Format.fprintf ppf
    "usage: analyze [INPUT ...] [options]@.@.\
     \  INPUT           a generated-suite benchmark (%s)@.\
     \                  or a .mini source file; default: the whole suite@.\
     \  --pass NAMES    comma-separated pass restriction (default: all)@.\
     \  --algo KEYS     comma-separated allocator restriction (default: all)@.\
     \  --jobs N        engine workers (output identical at any N)@.\
     \  --k N           registers per class (default: per-benchmark policy)@.\
     \  --json          machine-readable diagnostics on stdout@.\
     \  --list          print the passes and exit@."
    (String.concat ", " Suite.names)

let list_passes () =
  List.iter
    (fun p ->
      Format.printf "%-18s %-9s %s@." p.Pass.name
        (Pass.phase_label p.Pass.phase)
        p.Pass.doc)
    Passes.all;
  exit 0

let bad fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "analyze: %s@." msg;
      usage Format.err_formatter;
      exit 2)
    fmt

(* Register-file size per benchmark: the FP-heavy programs run at
   moderate pressure, db at low, the rest at high (test_verify's
   sweeps use the same rule). *)
let k_of name =
  if name = "db" then 32 else if List.mem name Suite.fp_names then 24 else 16

type input = { label : string; k : int; program : Cfg.program }

let resolve_input ~k name =
  if List.mem name Suite.names then
    { label = name; k = Option.value k ~default:(k_of name);
      program = Suite.program name }
  else if Filename.check_suffix name ".mini" && Sys.file_exists name then begin
    let source = In_channel.with_open_text name In_channel.input_all in
    match Mini_compile.compile_source source with
    | p -> { label = Filename.basename name; k = Option.value k ~default:16;
             program = p }
    | exception Mini_compile.Error msg -> bad "%s: %s" name msg
    | exception Mini_parser.Error msg -> bad "%s: %s" name msg
  end
  else bad "unknown input %S (not a benchmark or a .mini file)" name

let resolve_passes spec =
  List.map
    (fun name ->
      match List.find_opt (fun p -> p.Pass.name = name) Passes.all with
      | Some p -> p
      | None ->
          bad "unknown pass %S@.valid names: %s" name
            (String.concat ", "
               (List.map (fun p -> p.Pass.name) Passes.all)))
    (String.split_on_char ',' spec)

let resolve_algos spec =
  List.map
    (fun key ->
      match Allocator.find key with
      | Some a -> a
      | None ->
          bad "unknown allocator %S@.valid names: %s" key
            (String.concat ", " (Allocator.names ())))
    (String.split_on_char ',' spec)

(* ---- JSON rendering ------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let diag_json (d : Diagnostic.t) =
  Printf.sprintf
    "{\"func\":\"%s\",\"block\":%d,\"index\":%d,\"instr\":%d,\"reg\":%s,\
     \"severity\":\"%s\",\"reason\":\"%s\",\"message\":\"%s\"}"
    (json_escape d.Diagnostic.func)
    d.Diagnostic.block d.Diagnostic.index d.Diagnostic.instr
    (match d.Diagnostic.reg with
    | Some r -> Printf.sprintf "\"%s\"" (Reg.to_string r)
    | None -> "null")
    (match d.Diagnostic.severity with
    | Diagnostic.Error -> "error"
    | Diagnostic.Warning -> "warning")
    (Diagnostic.reason_label d.Diagnostic.reason)
    (json_escape d.Diagnostic.message)

let entry_json (e : Analyze_driver.entry) =
  let errors = List.length (Diagnostic.errors e.Analyze_driver.diags) in
  Printf.sprintf
    "{\"phase\":\"%s\",\"allocator\":%s,\"pass\":\"%s\",\"errors\":%d,\
     \"warnings\":%d,\"diagnostics\":[%s]}"
    (Pass.phase_label e.Analyze_driver.phase)
    (match e.Analyze_driver.allocator with
    | Some a -> Printf.sprintf "\"%s\"" (json_escape a)
    | None -> "null")
    e.Analyze_driver.pass errors
    (List.length e.Analyze_driver.diags - errors)
    (String.concat "," (List.map diag_json e.Analyze_driver.diags))

let input_json (i : input) (r : Analyze_driver.t) =
  Printf.sprintf
    "{\"input\":\"%s\",\"k\":%d,\"errors\":%d,\"warnings\":%d,\
     \"skipped\":[%s],\"entries\":[%s]}"
    (json_escape i.label) i.k
    (Analyze_driver.errors r)
    (Analyze_driver.warnings r)
    (String.concat ","
       (List.map
          (fun (a, msg) ->
            Printf.sprintf "{\"allocator\":\"%s\",\"reason\":\"%s\"}"
              (json_escape a) (json_escape msg))
          r.Analyze_driver.skipped))
    (String.concat "," (List.map entry_json r.Analyze_driver.entries))

(* ---- text rendering ------------------------------------------------- *)

let report_input ppf (i : input) (r : Analyze_driver.t) =
  Format.fprintf ppf "== %s (k=%d) ==@." i.label i.k;
  List.iter
    (fun (e : Analyze_driver.entry) ->
      if e.Analyze_driver.diags <> [] then begin
        let errors = Diagnostic.errors e.Analyze_driver.diags in
        Format.fprintf ppf "%s/%s%s: %d error(s), %d warning(s)@."
          (Pass.phase_label e.Analyze_driver.phase)
          e.Analyze_driver.pass
          (match e.Analyze_driver.allocator with
          | Some a -> "[" ^ a ^ "]"
          | None -> "")
          (List.length errors)
          (List.length e.Analyze_driver.diags - List.length errors);
        Verify.report ppf errors
      end)
    r.Analyze_driver.entries;
  List.iter
    (fun (a, msg) -> Format.fprintf ppf "skipped %s: %s@." a msg)
    r.Analyze_driver.skipped

(* ---- entry point ---------------------------------------------------- *)

let () =
  let inputs = ref [] in
  let passes = ref None in
  let algos = ref None in
  let jobs = ref (Engine.default_jobs ()) in
  let k = ref None in
  let json = ref false in
  let rec parse = function
    | [] -> ()
    | "--help" :: _ | "-h" :: _ ->
        usage Format.std_formatter;
        exit 0
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--list" :: _ -> list_passes ()
    | "--pass" :: spec :: rest ->
        passes := Some (resolve_passes spec);
        parse rest
    | "--algo" :: spec :: rest ->
        algos := Some (resolve_algos spec);
        parse rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse rest
        | _ -> bad "--jobs expects a positive integer, got %S" n)
    | "--k" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n -> (
            match Machine.make ~k:n () with
            | (_ : Machine.t) ->
                k := Some n;
                parse rest
            | exception Invalid_argument msg -> bad "--k: %s" msg)
        | None -> bad "--k expects an integer, got %S" n)
    | [ ("--pass" | "--algo" | "--jobs" | "--k") ] ->
        bad "missing argument for the trailing option"
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        bad "unknown option %S" arg
    | arg :: rest ->
        inputs := arg :: !inputs;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* Force registration of the built-in allocators. *)
  ignore Pipeline.all_algos;
  let inputs =
    match List.rev !inputs with
    | [] -> List.map (resolve_input ~k:!k) Suite.names
    | names -> List.map (resolve_input ~k:!k) names
  in
  let results =
    List.map
      (fun i ->
        let m = Machine.make ~k:i.k () in
        (i, Analyze_driver.run ~jobs:!jobs ?passes:!passes ?algos:!algos m
              i.program))
      inputs
  in
  let errors =
    List.fold_left (fun acc (_, r) -> acc + Analyze_driver.errors r) 0 results
  in
  let warnings =
    List.fold_left
      (fun acc (_, r) -> acc + Analyze_driver.warnings r)
      0 results
  in
  if !json then begin
    Format.printf
      "{\"schema\":\"pdgc-analysis/1\",\"errors\":%d,\"warnings\":%d,\
       \"inputs\":[%s]}@."
      errors warnings
      (String.concat "," (List.map (fun (i, r) -> input_json i r) results))
  end
  else begin
    List.iter (fun (i, r) -> report_input Format.std_formatter i r) results;
    Format.printf "@.%d error(s), %d warning(s) across %d input(s)@." errors
      warnings (List.length results)
  end;
  if errors > 0 then exit 1
