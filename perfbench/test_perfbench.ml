(* The benchmark's own checks: its order statistics, the trace
   arithmetic, and that the traced replay computes what the real
   allocators compute.  Run with `dune build @perfbench/perfbench-test`. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let close a b = Float.abs (a -. b) < 1e-9

let stats () =
  check "median of an even sample is the mean of the middle two"
    (close (Stats.median [| 4.; 1.; 3.; 2. |]) 2.5);
  check "median of an odd sample" (close (Stats.median [| 5.; 1.; 3. |]) 3.);
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "p99 interpolates between ranks" (close (Stats.percentile hundred 0.99) 99.01);
  check "p0 and p100 are the extremes"
    (close (Stats.percentile hundred 0.) 1. && close (Stats.percentile hundred 1.) 100.);
  check "one sample is every percentile" (close (Stats.percentile [| 7. |] 0.99) 7.);
  check "quartiles"
    (let a = [| 1.; 2.; 3.; 4.; 5. |] in
     close (Stats.percentile a 0.25) 2. && close (Stats.percentile a 0.75) 4.);
  check "geometric mean" (close (Stats.geomean [ 1.; 4. ]) 2.);
  check "geometric mean of nothing is 1" (close (Stats.geomean []) 1.);
  check "ratio over zero is zero" (close (Stats.ratio 3. 0.) 0.);
  check "no samples is an error"
    (match Stats.median [||] with _ -> false | exception Invalid_argument _ -> true)

(* jess: many small functions with calls, so every allocator spills,
   coalesces and saves registers around calls. *)
let program = Suite.program "jess"

let replay_matches_exec () =
  List.iter
    (fun k ->
      let m = Machine.make ~k () in
      List.iter
        (fun (a : Allocator.t) ->
          let same =
            List.for_all
              (fun f ->
                let res, fin = Suite_wl.compile a m f in
                let res', fin' = Replay.hooks.Hooks.compile a m (Cfg.clone f) in
                String.equal
                  (Protocol.encode_func_reply res fin)
                  (Protocol.encode_func_reply res' fin'))
              program.Cfg.funcs
          in
          check (Printf.sprintf "traced replay = Allocator.exec: %s k=%d" a.Allocator.name k) same)
        (Allocator.all ()))
    [ 16; 24 ]

let self_times_add_up () =
  let m = Machine.make ~k:16 () in
  List.iteri
    (fun i f ->
      List.iter
        (fun a ->
          Trace.set_fn i;
          Trace.enabled := true;
          ignore
            (Trace.span Trace.Pipeline (fun () ->
                 let res, fin = Replay.hooks.Hooks.compile a m (Cfg.clone f) in
                 Trace.span Trace.Bench (fun () -> Protocol.encode_func_reply res fin)));
          Trace.enabled := false)
        [ Pipeline.pdgc_full; Pipeline.chaitin_base; Pipeline.iterated ])
    program.Cfg.funcs;
  let self = Trace.self_times () in
  let rows = List.fold_left (fun acc (l, ns) -> if l = Trace.Bench then acc else acc + ns) 0 self in
  check "self times plus unattributed rows sum to trace.fn_total_ns" (rows = Trace.fn_total ());
  check "every self time is non-negative" (List.for_all (fun (_, ns) -> ns >= 0) self);
  let stage l = List.assoc l self > 0 in
  check "the replay records every prepare stage"
    (List.for_all stage Trace.[ Ssa_construct; Ssa_destruct; Lower; Pair_schedule; Finalize ]);
  check "the replay records the allocation phases"
    (List.for_all stage Trace.[ Webs; Liveness; Igraph; Simplify; Color_select; Rpg; Cpg; Select ])

let () =
  stats ();
  replay_matches_exec ();
  self_times_add_up ();
  if !failures > 0 then begin
    Printf.printf "%d failed\n" !failures;
    exit 1
  end
