let config =
  Alloc_common.config ~name:"chaitin+aggressive" ~mode:Simplify.Chaitin ()

let allocator =
  Allocator.v ~name:"chaitin" ~label:"chaitin+aggressive"
    (Alloc_common.allocate config)
