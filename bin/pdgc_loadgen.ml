(* The @serve-smoke runner: boot daemons from a pdgcd binary on temp
   sockets and run the daemon equivalence checks (daemon ≡ one-shot
   pipeline, cached ≡ uncached, jobs=1 ≡ jobs=4, concurrent
   connections, error replies; see Loadgen.selftest).  Daemon
   throughput and latency are measured by perfbench's daemon-zipf.

   Exit codes: 0 = every check passed, 1 = a check failed or the
   daemon could not be run, 2 = bad usage. *)

let usage ppf = Format.fprintf ppf "usage: pdgc_loadgen --pdgcd EXE@."

let bad fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "pdgc_loadgen: %s@." msg;
      usage Format.err_formatter;
      exit 2)
    fmt

let fail msg =
  Format.eprintf "pdgc_loadgen: %s@." msg;
  exit 1

let () =
  let exe =
    match List.tl (Array.to_list Sys.argv) with
    | [ ("--help" | "-h") ] ->
        usage Format.std_formatter;
        exit 0
    | [ "--pdgcd"; exe ] -> exe
    | [] -> bad "missing --pdgcd EXE"
    | [ "--pdgcd" ] -> bad "missing argument for --pdgcd"
    | "--pdgcd" :: _ :: arg :: _ | arg :: _ -> bad "unknown argument %S" arg
  in
  match Loadgen.selftest ~exe () with
  | Ok () -> Format.printf "serve selftest: ok@."
  | Error msg -> fail msg
  | exception e -> fail (Printexc.to_string e)
