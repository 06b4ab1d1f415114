(* Register Preference Graph tests. *)

open Helpers

let fig7_rpg () =
  let fn, regs = Fig7.build () in
  let webs = Webs.run fn in
  let fn' = webs.Webs.func in
  let web_of orig =
    Reg.Tbl.fold
      (fun w o acc -> if Reg.equal o orig then w else acc)
      webs.Webs.origin orig
  in
  let str, rpg = build_rpg Fig7.machine fn' in
  ( rpg,
    str,
    {
      Fig7.v0 = web_of regs.Fig7.v0;
      v1 = web_of regs.Fig7.v1;
      v2 = web_of regs.Fig7.v2;
      v3 = web_of regs.Fig7.v3;
      v4 = web_of regs.Fig7.v4;
    } )

let has_pref rpg r pred = List.exists pred (Rpg.prefs rpg r)

let test_coalesce_edges_both_directions () =
  let rpg, _, regs = fig7_rpg () in
  check Alcotest.bool "v3 -> coalesce v0" true
    (has_pref rpg regs.Fig7.v3 (fun p ->
         match p.Rpg.target with
         | Rpg.Coalesce t -> Reg.equal t regs.Fig7.v0
         | _ -> false));
  check Alcotest.bool "v0 -> coalesce v3" true
    (has_pref rpg regs.Fig7.v0 (fun p ->
         match p.Rpg.target with
         | Rpg.Coalesce t -> Reg.equal t regs.Fig7.v3
         | _ -> false))

let test_dedicated_register_edge () =
  let rpg, _, regs = fig7_rpg () in
  (* arg0 = v3: v3 prefers the physical r0 (preference type 1). *)
  check Alcotest.bool "v3 -> coalesce r0" true
    (has_pref rpg regs.Fig7.v3 (fun p ->
         match p.Rpg.target with
         | Rpg.Coalesce t -> Reg.equal t (Reg.phys Reg.Int_class 0)
         | _ -> false))

let test_sequential_edges () =
  let rpg, _, regs = fig7_rpg () in
  check Alcotest.bool "v2 seq+ v1" true
    (has_pref rpg regs.Fig7.v2 (fun p ->
         match p.Rpg.target with
         | Rpg.Seq_plus t -> Reg.equal t regs.Fig7.v1
         | _ -> false));
  check Alcotest.bool "v1 seq- v2" true
    (has_pref rpg regs.Fig7.v1 (fun p ->
         match p.Rpg.target with
         | Rpg.Seq_minus t -> Reg.equal t regs.Fig7.v2
         | _ -> false))

let test_kind_edges_everywhere () =
  let rpg, _, regs = fig7_rpg () in
  List.iter
    (fun (n, r) ->
      check Alcotest.bool (n ^ " has a kind preference") true
        (has_pref rpg r (fun p -> p.Rpg.target = Rpg.Kind)))
    [
      ("v0", regs.Fig7.v0); ("v1", regs.Fig7.v1); ("v2", regs.Fig7.v2);
      ("v3", regs.Fig7.v3); ("v4", regs.Fig7.v4);
    ]

let test_incoming_edges () =
  let rpg, _, regs = fig7_rpg () in
  let inc = Rpg.incoming rpg regs.Fig7.v1 in
  (* v2's seq+ edge targets v1. *)
  check Alcotest.bool "v2 targets v1" true
    (List.exists
       (fun (src, p) ->
         Reg.equal src regs.Fig7.v2
         && match p.Rpg.target with Rpg.Seq_plus _ -> true | _ -> false)
       inc)

let test_pairs_listed () =
  let rpg, _, regs = fig7_rpg () in
  match Rpg.pairs rpg with
  | [ (_, lo, hi) ] ->
      check reg_testable "lo dst" regs.Fig7.v1 lo;
      check reg_testable "hi dst" regs.Fig7.v2 hi
  | l -> Alcotest.failf "expected one pair, got %d" (List.length l)

let test_prefs_sorted () =
  let rpg, _, regs = fig7_rpg () in
  let ps = Rpg.prefs rpg regs.Fig7.v3 in
  let strengths = List.map Rpg.strength ps in
  check Alcotest.bool "descending" true
    (List.sort (fun a b -> compare b a) strengths = strengths)

let test_coalesce_only_mode () =
  let fn, _ = Fig7.build () in
  let webs = Webs.run fn in
  let fn' = webs.Webs.func in
  let _, rpg = build_rpg ~kinds:`Coalesce_only Fig7.machine fn' in
  Reg.Set.iter
    (fun r ->
      List.iter
        (fun p ->
          match p.Rpg.target with
          | Rpg.Coalesce _ -> ()
          | _ -> Alcotest.failf "non-coalesce preference in coalesce-only mode")
        (Rpg.prefs rpg r))
    (Cfg.all_vregs fn')

let test_limited_edge () =
  let b = Builder.create ~name:"lim" ~n_params:1 in
  let x = Builder.reg b Reg.Int_class in
  Builder.param b x 0;
  let y = Builder.limited b x in
  Builder.ret b (Some y);
  let fn = Builder.finish b in
  let _, rpg = build_rpg Machine.middle_pressure fn in
  check Alcotest.bool "limited edge on dst" true
    (List.exists
       (fun p -> p.Rpg.target = Rpg.In_limited)
       (Rpg.prefs rpg y))

let test_no_pair_across_different_base () =
  let b = Builder.create ~name:"nopair" ~n_params:2 in
  let b1 = Builder.reg b Reg.Int_class in
  let b2 = Builder.reg b Reg.Int_class in
  Builder.param b b1 0;
  Builder.param b b2 1;
  let x = Builder.load b ~base:b1 ~offset:0 () in
  let y = Builder.load b ~base:b2 ~offset:8 () in
  let s = Builder.binop b Instr.Add x y in
  Builder.ret b (Some s);
  let fn = Builder.finish b in
  let _, rpg = build_rpg Machine.middle_pressure fn in
  check Alcotest.int "no pairs" 0 (List.length (Rpg.pairs rpg))

let test_no_pair_when_offsets_gap () =
  let b = Builder.create ~name:"gap" ~n_params:1 in
  let base = Builder.reg b Reg.Int_class in
  Builder.param b base 0;
  let x = Builder.load b ~base ~offset:0 () in
  let y = Builder.load b ~base ~offset:16 () in
  let s = Builder.binop b Instr.Add x y in
  Builder.ret b (Some s);
  let fn = Builder.finish b in
  let _, rpg = build_rpg Machine.middle_pressure fn in
  check Alcotest.int "no pairs" 0 (List.length (Rpg.pairs rpg))

let prop_edges_are_virtual_sources =
  qcheck ~count:25 "preference sources are virtual registers" seed_gen
    (fun seed ->
      let p = prepared_random_program seed in
      List.for_all
        (fun fn ->
          let webs = Webs.run (Cfg.clone fn) in
          let fn = webs.Webs.func in
          let _, rpg = build_rpg Machine.middle_pressure fn in
          Reg.Set.for_all
            (fun r -> List.for_all (fun _ -> Reg.is_virtual r) (Rpg.prefs rpg r))
            (Cfg.all_vregs fn))
        p.Cfg.funcs)

let prop_incoming_matches_outgoing =
  qcheck ~count:25 "incoming edges mirror outgoing targets" seed_gen
    (fun seed ->
      let p = prepared_random_program seed in
      List.for_all
        (fun fn ->
          let webs = Webs.run (Cfg.clone fn) in
          let fn = webs.Webs.func in
          let _, rpg = build_rpg Machine.middle_pressure fn in
          Reg.Set.for_all
            (fun r ->
              List.for_all
                (fun p ->
                  match p.Rpg.target with
                  | Rpg.Coalesce t | Rpg.Seq_plus t | Rpg.Seq_minus t ->
                      (not (Reg.is_virtual t))
                      || List.exists
                           (fun (src, p') -> Reg.equal src r && p' == p)
                           (Rpg.incoming rpg t)
                  | Rpg.Kind | Rpg.In_limited | Rpg.Memory -> true)
                (Rpg.prefs rpg r))
            (Cfg.all_vregs fn))
        p.Cfg.funcs)

let () =
  Alcotest.run "rpg"
    [
      ( "fig7",
        [
          tc "coalesce edges both ways" test_coalesce_edges_both_directions;
          tc "dedicated-register edge" test_dedicated_register_edge;
          tc "sequential edges" test_sequential_edges;
          tc "kind edges" test_kind_edges_everywhere;
          tc "incoming edges" test_incoming_edges;
          tc "pair list" test_pairs_listed;
          tc "prefs sorted by strength" test_prefs_sorted;
        ] );
      ( "modes",
        [
          tc "coalesce-only restriction" test_coalesce_only_mode;
          tc "limited edge" test_limited_edge;
          tc "no pair across bases" test_no_pair_across_different_base;
          tc "no pair across gaps" test_no_pair_when_offsets_gap;
        ] );
      ("props", [ prop_edges_are_virtual_sources; prop_incoming_matches_outgoing ]);
    ]
