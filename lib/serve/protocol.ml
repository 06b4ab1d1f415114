exception Error of string
exception Closed

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* [v], decoded from all of [s] by [r]: bytes after it make the payload
   malformed, so two different payloads never decode to one message. *)
let whole r s v =
  if Codec.pos r <> String.length s then
    fail "trailing garbage at offset %d" (Codec.pos r);
  v

(* 64 MiB: generous for any realistic program batch, small enough that
   a corrupt length prefix cannot drive the peer into the allocator.
   Inside a frame, [Codec.max_counter] (2^20) bounds each function's
   register, instruction and label counters, and every id is checked
   against its counter, so no decoded value sizes an allocation either. *)
let max_frame = 1 lsl 26

(* ---- messages --------------------------------------------------------- *)

type wire_program = Binary of Cfg.program | Text of string

type request =
  | Alloc of { machine : Machine.t; algo : string; program : wire_program }
  | Stats
  | Shutdown

type server_stats = {
  cache : Cache.stats;
  funcs_served : int;
  funcs_allocated : int;
  requests_served : int;
  batches : int;
  pool_jobs : int;
}

type response =
  | Funcs of string list
  | Stats_reply of server_stats
  | Shutdown_ack
  | Error_reply of string

(* ---- machine config --------------------------------------------------- *)

let write_machine buf (m : Machine.t) =
  Codec.write_string buf m.Machine.name;
  Codec.write_int buf m.Machine.k;
  Codec.write_int buf m.Machine.n_volatile;
  Codec.write_int buf m.Machine.n_arg_regs;
  Codec.write_int buf m.Machine.ret_index;
  Codec.write_int buf m.Machine.limited_size;
  Buffer.add_char buf
    (match m.Machine.pair_rule with
    | Machine.Parity -> '\000'
    | Machine.Consecutive -> '\001')

let read_machine r : Machine.t =
  let name = Codec.read_string r in
  let k = Codec.read_int r in
  let n_volatile = Codec.read_int r in
  let n_arg_regs = Codec.read_int r in
  let ret_index = Codec.read_int r in
  let limited_size = Codec.read_int r in
  let pair_rule =
    match Codec.read_byte r with
    | 0 -> Machine.Parity
    | 1 -> Machine.Consecutive
    | _ -> fail "bad pair rule at offset %d" (Codec.pos r)
  in
  (* A request's machine passes the same checks as any other, so a bad
     one is an error reply, never a failure deep inside an allocator. *)
  try
    Machine.make ~name ~n_volatile ~n_arg_regs ~ret_index ~limited_size
      ~pair_rule ~k ()
  with Invalid_argument msg -> raise (Error msg)

(* ---- requests --------------------------------------------------------- *)

let encode_request req =
  let buf = Buffer.create 1024 in
  (match req with
  | Alloc { machine; algo; program } ->
      Buffer.add_char buf '\001';
      write_machine buf machine;
      Codec.write_string buf algo;
      (match program with
      | Binary p ->
          Buffer.add_char buf '\000';
          Codec.write_program buf p
      | Text src ->
          Buffer.add_char buf '\001';
          Codec.write_string buf src)
  | Stats -> Buffer.add_char buf '\002'
  | Shutdown -> Buffer.add_char buf '\003');
  Buffer.contents buf

let decode_request s =
  let r = Codec.reader s in
  let req =
    match Codec.read_byte r with
    | 1 ->
        let machine = read_machine r in
        let algo = Codec.read_string r in
        let program =
          match Codec.read_byte r with
          | 0 -> Binary (Codec.read_program r)
          | 1 -> Text (Codec.read_string r)
          | _ -> fail "bad program format at offset %d" (Codec.pos r)
        in
        Alloc { machine; algo; program }
    | 2 -> Stats
    | 3 -> Shutdown
    | _ -> fail "bad request opcode"
  in
  whole r s req

(* ---- per-function reply blobs ----------------------------------------- *)

type func_reply = {
  func : Cfg.func;
  rounds : int;
  spill_instrs : int;
  moves_eliminated : int;
  moves_kept : int;
  pairs_fused : int;
  callee_saved : int;
  caller_save_instrs : int;
  spill_slots : (Reg.t * int) list;
}

let encode_func_reply (res : Alloc_common.result) (fin : Finalize.t) =
  let buf = Buffer.create 1024 in
  Codec.write_func buf fin.Finalize.func;
  Codec.write_int buf res.Alloc_common.rounds;
  Codec.write_int buf res.Alloc_common.spill_instrs;
  Codec.write_int buf fin.Finalize.moves_eliminated;
  Codec.write_int buf fin.Finalize.moves_kept;
  Codec.write_int buf fin.Finalize.pairs_fused;
  Codec.write_int buf fin.Finalize.callee_saved;
  Codec.write_int buf fin.Finalize.caller_save_instrs;
  Codec.write_int buf (List.length res.Alloc_common.spill_slots);
  List.iter
    (fun (r, slot) ->
      Codec.write_int buf r;
      Codec.write_int buf slot)
    res.Alloc_common.spill_slots;
  Buffer.contents buf

let decode_func_reply s =
  let r = Codec.reader s in
  let func = Codec.read_func r in
  let rounds = Codec.read_int r in
  let spill_instrs = Codec.read_int r in
  let moves_eliminated = Codec.read_int r in
  let moves_kept = Codec.read_int r in
  let pairs_fused = Codec.read_int r in
  let callee_saved = Codec.read_int r in
  let caller_save_instrs = Codec.read_int r in
  let n = Codec.read_int r in
  if n < 0 then fail "negative spill-slot count";
  let slots = ref [] in
  for _ = 1 to n do
    let reg = Codec.read_int r in
    let slot = Codec.read_int r in
    slots := (reg, slot) :: !slots
  done;
  whole r s
    {
      func;
      rounds;
      spill_instrs;
      moves_eliminated;
      moves_kept;
      pairs_fused;
      callee_saved;
      caller_save_instrs;
      spill_slots = List.rev !slots;
    }

(* ---- responses -------------------------------------------------------- *)

(* The one encoder of a function reply: status byte 0, the blob count,
   then each blob length-prefixed.  [put_funcs b pos blobs] writes the
   [funcs_size blobs] bytes at [pos], so the daemon can encode a reply
   straight into its frame ({!write_response}). *)
let funcs_size blobs =
  List.fold_left
    (fun acc b -> acc + Codec.string_size b)
    (1 + Codec.int_size (List.length blobs))
    blobs

let put_funcs b pos blobs =
  Bytes.set b pos '\000';
  let pos = Codec.put_int b (pos + 1) (List.length blobs) in
  ignore (List.fold_left (Codec.put_string b) pos blobs : int)

let buffered f =
  let buf = Buffer.create 64 in
  f buf;
  Buffer.contents buf

let encode_response = function
  | Funcs blobs ->
      let b = Bytes.create (funcs_size blobs) in
      put_funcs b 0 blobs;
      Bytes.unsafe_to_string b
  | Stats_reply s ->
      buffered (fun buf ->
          Buffer.add_char buf '\001';
          Codec.write_int buf s.cache.Cache.hits;
          Codec.write_int buf s.cache.Cache.misses;
          Codec.write_int buf s.cache.Cache.evictions;
          Codec.write_int buf s.cache.Cache.entries;
          Codec.write_int buf s.cache.Cache.capacity;
          Codec.write_int buf s.cache.Cache.refused;
          Codec.write_int buf s.funcs_served;
          Codec.write_int buf s.funcs_allocated;
          Codec.write_int buf s.requests_served;
          Codec.write_int buf s.batches;
          Codec.write_int buf s.pool_jobs)
  | Shutdown_ack -> "\002"
  | Error_reply msg ->
      buffered (fun buf ->
          Buffer.add_char buf '\255';
          Codec.write_string buf msg)

let decode_response s =
  let r = Codec.reader s in
  let resp =
    match Codec.read_byte r with
    | 0 ->
        let n = Codec.read_int r in
        if n < 0 then fail "negative function count in response";
        let blobs = ref [] in
        for _ = 1 to n do
          blobs := Codec.read_string r :: !blobs
        done;
        Funcs (List.rev !blobs)
    | 1 ->
        let hits = Codec.read_int r in
        let misses = Codec.read_int r in
        let evictions = Codec.read_int r in
        let entries = Codec.read_int r in
        let capacity = Codec.read_int r in
        let refused = Codec.read_int r in
        let funcs_served = Codec.read_int r in
        let funcs_allocated = Codec.read_int r in
        let requests_served = Codec.read_int r in
        let batches = Codec.read_int r in
        let pool_jobs = Codec.read_int r in
        Stats_reply
          {
            cache = { Cache.hits; misses; evictions; entries; capacity; refused };
            funcs_served;
            funcs_allocated;
            requests_served;
            batches;
            pool_jobs;
          }
    | 2 -> Shutdown_ack
    | 255 ->
        let msg = Codec.read_string r in
        Error_reply msg
    | _ -> fail "bad response status"
  in
  whole r s resp

(* ---- framed blocking I/O ---------------------------------------------- *)

let rec write_all fd bytes off len =
  if len > 0 then begin
    let n =
      try Unix.write fd bytes off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd bytes (off + n) (len - n)
  end

(* A frame with room for a [len]-byte payload after its length prefix. *)
let frame_for len =
  if len > max_frame then fail "frame too large (%d bytes)" len;
  let frame = Bytes.create (4 + len) in
  Bytes.set_int32_le frame 0 (Int32.of_int len);
  frame

let write_frame fd payload =
  let len = String.length payload in
  let frame = frame_for len in
  Bytes.blit_string payload 0 frame 4 len;
  write_all fd frame 0 (4 + len)

(* A function reply is encoded straight into its frame, so each cached
   blob is copied once on its way to the socket. *)
let write_response fd resp =
  match resp with
  | Funcs blobs ->
      let len = funcs_size blobs in
      let frame = frame_for len in
      put_funcs frame 4 blobs;
      write_all fd frame 0 (4 + len)
  | Stats_reply _ | Shutdown_ack | Error_reply _ ->
      write_frame fd (encode_response resp)

let read_exactly fd n =
  let bytes = Bytes.create n in
  let rec go off =
    if off < n then begin
      let got =
        try Unix.read fd bytes off (n - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> -1
      in
      if got = 0 then raise Closed;
      go (off + max 0 got)
    end
  in
  go 0;
  bytes

let read_frame fd =
  let header = read_exactly fd 4 in
  let len = Int32.to_int (Bytes.get_int32_le header 0) in
  if len < 0 || len > max_frame then
    fail "bad frame length %d" len;
  Bytes.to_string (read_exactly fd len)
