(* The traced benchmark: per-layer metrics from the stage-by-stage
   replay (see Cli and Replay). *)
let () = Cli.main (Some Replay.hooks)
