type t = {
  name : string;
  label : string;
  run : Machine.t -> Cfg.func -> Alloc_common.result;
}

let v ~name ~label run = { name; label; run }
let exec a m f = a.run m f

(* Registration normally happens at module-initialization time (the
   pipeline registers the built-in eight), but the registry is guarded
   anyway so that a program registering custom allocators from a worker
   domain cannot corrupt the table. *)
let lock = Mutex.create ()
let registered : t list ref = ref []

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let register a =
  with_lock (fun () ->
      if List.exists (fun b -> String.equal b.name a.name) !registered then
        invalid_arg
          (Printf.sprintf "Allocator.register: duplicate allocator %S" a.name);
      registered := !registered @ [ a ])

let find name =
  with_lock (fun () ->
      List.find_opt (fun a -> String.equal a.name name) !registered)

let all () = with_lock (fun () -> !registered)
let names () = List.map (fun a -> a.name) (all ())
