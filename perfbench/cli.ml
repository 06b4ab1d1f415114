(* The command line shared by the gated and the traced executable.

   usage: perfbench --workload W --seed N --seconds S --trace 0|1
                    [--pdgcd PATH] [--spans FILE]

   One workload per process.  The last line of standard output is the
   JSON result; the lines before it print every metric with its unit,
   every failure and every verifier error.  Exit code 0 means the run
   completed ([correct] says whether every output was right); 2 is bad
   usage. *)

let workloads = [ "suite-pdgc"; "suite-baselines"; "daemon-zipf" ]

let usage () =
  prerr_endline
    ("usage: perfbench --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1 [--pdgcd PATH] [--spans FILE]");
  exit 2

let main hooks =
  (* before anything grows the heap (see Calib.worker) *)
  ignore (Lazy.force Calib.worker);
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and pdgcd = ref "" and spans = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string_opt n;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := (match float_of_string_opt s with Some s when s > 0. -> Some s | _ -> None);
        parse rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
        parse rest
    | "--pdgcd" :: p :: rest ->
        pdgcd := p;
        parse rest
    | "--spans" :: p :: rest ->
        spans := p;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some a, Some b, Some c -> (a, b, c)
    | _ -> usage ()
  in
  if trace && hooks = None then begin
    prerr_endline "perfbench: --trace 1 needs the traced executable";
    exit 2
  end;
  let outcome =
    match !workload with
    | "suite-pdgc" -> Suite_wl.run ?hooks Suite_wl.pdgc ~seed ~seconds ~trace
    | "suite-baselines" -> Suite_wl.run ?hooks Suite_wl.baselines ~seed ~seconds ~trace
    | "daemon-zipf" ->
        if not (Sys.file_exists !pdgcd) then begin
          prerr_endline "perfbench: daemon-zipf needs --pdgcd PATH to a pdgcd binary";
          exit 2
        end;
        Daemon_wl.run ?hooks ~seed ~seconds ~trace ~pdgcd:!pdgcd ()
    | _ -> usage ()
  in
  if trace && !spans <> "" then Trace.write !spans;
  Report.print ~workload:!workload outcome
