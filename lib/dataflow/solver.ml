type direction = Forward | Backward

module type FACT = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

(* Facts are stored by reverse-postorder position; [slot] maps a label
   to its position ([-1] for a block the solver did not reach). *)
type 'a result = {
  slot : int array;
  input : 'a array;
  output : 'a array;
  bottom : 'a;
}

let position r l = if l >= 0 && l < Array.length r.slot then r.slot.(l) else -1

let input r l =
  let p = position r l in
  if p < 0 then r.bottom else r.input.(p)

let output r l =
  let p = position r l in
  if p < 0 then r.bottom else r.output.(p)

module Make (F : FACT) = struct
  let solve ~direction ~transfer ?(entry_fact = F.bottom) (f : Cfg.func) =
    let labels = Array.of_list (Cfg.reverse_postorder f) in
    let n = Array.length labels in
    let slot = Array.make (1 + Array.fold_left max (-1) labels) (-1) in
    Array.iteri (fun p l -> slot.(l) <- p) labels;
    let pos l = if l >= 0 && l < Array.length slot then slot.(l) else -1 in
    (* Blocks by position, and predecessor lists in [Cfg.predecessors]'s
       order (the join order), keeping only reachable predecessors: an
       unreachable one has no fact to join. *)
    let blocks = Array.make n None and preds = Array.make n [] in
    List.iter
      (fun (b : Cfg.block) ->
        let pb = pos b.Cfg.label in
        if pb >= 0 then begin
          if Option.is_none blocks.(pb) then blocks.(pb) <- Some b;
          List.iter
            (fun s ->
              let ps = pos s in
              if ps >= 0 then preds.(ps) <- pb :: preds.(ps))
            (Cfg.successors b)
        end)
      f.Cfg.blocks;
    let blocks =
      Array.mapi
        (fun p b -> match b with Some b -> b | None -> Cfg.block f labels.(p))
        blocks
    in
    let succs = Array.map (fun b -> List.map pos (Cfg.successors b)) blocks in
    (* Sources of a block's input fact and sinks of its output fact,
       depending on direction. *)
    let feeds_from, feeds_to =
      match direction with Forward -> (preds, succs) | Backward -> (succs, preds)
    in
    let is_boundary p =
      match direction with Forward -> p = 0 | Backward -> feeds_from.(p) = []
    in
    let input = Array.make n F.bottom in
    let output = Array.make n F.bottom in
    (* Seed the worklist in an order matching the direction so most
       functions converge in two sweeps. *)
    let pending = Queue.create () in
    let queued = Array.make n false in
    let enqueue p =
      if not queued.(p) then begin
        queued.(p) <- true;
        Queue.add p pending
      end
    in
    (match direction with
    | Forward -> for p = 0 to n - 1 do enqueue p done
    | Backward -> for p = n - 1 downto 0 do enqueue p done);
    while not (Queue.is_empty pending) do
      let p = Queue.pop pending in
      queued.(p) <- false;
      let incoming =
        List.fold_left
          (fun acc q -> F.join acc output.(q))
          (if is_boundary p then entry_fact else F.bottom)
          feeds_from.(p)
      in
      input.(p) <- incoming;
      let out = transfer blocks.(p) incoming in
      if not (F.equal out output.(p)) then begin
        output.(p) <- out;
        List.iter enqueue feeds_to.(p)
      end
    done;
    { slot; input; output; bottom = F.bottom }
end
