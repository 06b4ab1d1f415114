let aggressive = Alloc_common.config ~name:"briggs+aggressive" ()

let allocator =
  Allocator.v ~name:"briggs" ~label:"Briggs +aggressive"
    (Alloc_common.allocate aggressive)
