let encode_requests ~machine ~algo progs =
  List.map
    (fun p ->
      Protocol.encode_request
        (Protocol.Alloc { machine; algo; program = Protocol.Binary p }))
    progs

let one_shot_blobs ~machine ~algo p =
  let a =
    Pipeline.allocate_program ~jobs:1 algo machine (Pipeline.prepare machine p)
  in
  List.map2 Protocol.encode_func_reply a.Pipeline.results a.Pipeline.finals
