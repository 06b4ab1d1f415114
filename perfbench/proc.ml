(* Child processes and /proc readings. *)

(* The value of field [key] in /proc/PID/status. *)
let status pid key =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let prefix = key ^ ":" in
  let n = String.length prefix in
  let rec go () =
    match input_line ic with
    | line when String.length line > n && String.sub line 0 n = prefix ->
        String.trim (String.sub line n (String.length line - n))
    | _ -> go ()
    | exception End_of_file -> failwith ("no " ^ key ^ " in /proc status")
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Peak resident set of a process, in MiB ([VmHWM]). *)
let peak_rss_mb pid = Scanf.sscanf (status pid "VmHWM") "%d kB" (fun kb -> float_of_int kb /. 1024.)

(* The CPUs this process may run on, as a taskset list. *)
let cpus_allowed () = status "self" "Cpus_allowed_list"

(* CPU time (user + system) a process has used, in ns, at the
   resolution of the kernel's clock tick. *)
let cpu_ns pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* fields after the parenthesised command name; utime and stime are
     fields 14 and 15 of the whole line *)
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  let ticks = int_of_string fields.(11) + int_of_string fields.(12) in
  ticks * (1_000_000_000 / 100)

(* A forked child computing a value, handed back marshalled through a
   pipe.  [fd] becomes readable when the child is done; [join] reads the
   value and reaps the child. *)
type 'a child = { fd : Unix.file_descr; join : unit -> ('a, string) result }

(* Run [f] in a forked child.  The child must not share domains with
   the parent, so callers fork before any domain could have been
   spawned. *)
let spawn_child (f : unit -> 'a) : 'a child =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (v : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let join () =
        let ic = Unix.in_channel_of_descr rd in
        let v =
          try (Marshal.from_channel ic : ('a, string) result)
          with End_of_file | Failure _ -> Error "child process died"
        in
        close_in ic;
        let rec reap () =
          match Unix.waitpid [] pid with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
          | _ -> ()
        in
        reap ();
        v
      in
      { fd = rd; join }

let spawn f = (spawn_child f).join

(* A worker process, forked now, that runs [f] each time [ask] asks it
   and hands back the result.  Forked before the heap grows, it never
   holds or collects anything its caller makes later, and asking it
   forks nothing.  It stops when this process exits; workers forked
   later stop first, so one that inherited an earlier worker's pipe
   does not keep that worker waiting. *)
type 'a worker = { pid : int; ask : unit -> 'a }

let worker (f : unit -> 'a) : 'a worker =
  let req_r, req_w = Unix.pipe ~cloexec:true () and ack_r, ack_w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close ack_r;
      let oc = Unix.out_channel_of_descr ack_w and b = Bytes.create 1 in
      (try
         while Unix.read req_r b 0 1 = 1 do
           Marshal.to_channel oc (f ()) [];
           flush oc
         done
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close req_r;
      Unix.close ack_w;
      let ic = Unix.in_channel_of_descr ack_r and b = Bytes.create 1 in
      at_exit (fun () ->
          Unix.close req_w;
          close_in ic;
          ignore (Unix.waitpid [] pid));
      let ask () =
        ignore (Unix.write req_w b 0 1);
        (Marshal.from_channel ic : 'a)
      in
      { pid; ask }

(* Run jobs [0 .. n-1] in child processes, two at a time (one per core
   of the 2-core host), starting the next job as soon as either
   finishes; results in job order. *)
let run_jobs n (job : int -> unit -> 'a) : ('a, string) result array =
  let results = Array.make n (Error "not run") in
  let running = ref [] and next = ref 0 in
  while !next < n || !running <> [] do
    if !next < n && List.length !running < 2 then begin
      running := (!next, spawn_child (job !next)) :: !running;
      incr next
    end
    else
      match Unix.select (List.map (fun (_, c) -> c.fd) !running) [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          let j, c = List.find (fun (_, c) -> List.mem c.fd ready) !running in
          results.(j) <- c.join ();
          running := List.filter (fun (j', _) -> j' <> j) !running
  done;
  results

(* The directory, inside the checkout, for sockets, span files and
   scratch files. *)
let work_dir () =
  let d = ".perfbench" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0)

(* Restrict a process to a list of CPUs (taskset syntax). *)
let pin pid cpus =
  let p =
    Unix.create_process "taskset"
      [| "taskset"; "-p"; "-c"; cpus; string_of_int pid |]
      Unix.stdin (Lazy.force devnull) Unix.stderr
  in
  ignore (Unix.waitpid [] p)
