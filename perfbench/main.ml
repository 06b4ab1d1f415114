(* The gated benchmark: end-to-end metrics through the libraries'
   coarse entry points only (see Cli). *)
let () = Cli.main None
