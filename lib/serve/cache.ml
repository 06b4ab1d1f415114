(* Hash table over an intrusive doubly-linked recency list: the head is
   hottest, the tail is the eviction candidate.  All operations are
   O(1); the sentinel node keeps the splicing branch-free.

   Admission: while the cache is full, a new key gets in only on its
   second miss, when it is still in the ghost — the last [capacity]
   refused keys, a ring of their names plus a table from each name to
   its slot.  A slot overwritten by a newer refusal drops its name from
   the table only if the table still points there: an admitted name
   has left the table already, and may have been refused again since. *)

type 'a node = {
  key : string;
  mutable value : 'a option;  (* None only on the sentinel *)
  mutable prev : 'a node;
  mutable next : 'a node;
}

type 'a t = {
  table : (string, 'a node) Hashtbl.t;
  sentinel : 'a node;  (* sentinel.next = hottest, sentinel.prev = coldest *)
  capacity : int;
  ghost : (string, int) Hashtbl.t;  (* refused key -> its ring slot *)
  mutable ring : string array;  (* [capacity] slots, made at the first refusal *)
  mutable oldest : int;  (* the slot the next refusal takes *)
  mutable entries : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable refused : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
  refused : int;
}

let create ~capacity =
  let rec sentinel = { key = ""; value = None; prev = sentinel; next = sentinel } in
  {
    table = Hashtbl.create 1024;
    sentinel;
    capacity = max 0 capacity;
    ghost = Hashtbl.create 16;
    ring = [||];
    oldest = 0;
    entries = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    refused = 0;
  }

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  n.next <- t.sentinel.next;
  n.prev <- t.sentinel;
  t.sentinel.next.prev <- n;
  t.sentinel.next <- n

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some n ->
      t.hits <- t.hits + 1;
      unlink n;
      push_front t n;
      n.value
  | None ->
      t.misses <- t.misses + 1;
      None

let mem t key = Hashtbl.mem t.table key

let evict_coldest t =
  let n = t.sentinel.prev in
  if n != t.sentinel then begin
    unlink n;
    Hashtbl.remove t.table n.key;
    t.entries <- t.entries - 1;
    t.evictions <- t.evictions + 1
  end

(* Whether a new key may displace the coldest entry of a full cache: yes
   if it was refused lately (it leaves the ghost), else it is refused. *)
let admitted t key =
  if Hashtbl.mem t.ghost key then begin
    Hashtbl.remove t.ghost key;
    true
  end
  else begin
    if Array.length t.ring = 0 then t.ring <- Array.make t.capacity "";
    let old = t.ring.(t.oldest) in
    (match Hashtbl.find_opt t.ghost old with
    | Some slot when slot = t.oldest -> Hashtbl.remove t.ghost old
    | _ -> ());
    t.ring.(t.oldest) <- key;
    Hashtbl.replace t.ghost key t.oldest;
    t.oldest <- (t.oldest + 1) mod t.capacity;
    t.refused <- t.refused + 1;
    false
  end

let add t key value =
  match Hashtbl.find_opt t.table key with
  | Some n ->
      n.value <- Some value;
      unlink n;
      push_front t n
  | None ->
      let full = t.capacity > 0 && t.entries >= t.capacity in
      if (not full) || admitted t key then begin
        if full then evict_coldest t;
        let n =
          { key; value = Some value; prev = t.sentinel; next = t.sentinel }
        in
        push_front t n;
        Hashtbl.replace t.table key n;
        t.entries <- t.entries + 1
      end

let stats (t : 'a t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    entries = t.entries;
    capacity = t.capacity;
    refused = t.refused;
  }
