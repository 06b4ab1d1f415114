type cell = Ratio of float | Na | Cycles of int
type row = { test : string; cells : cell list }

type table = {
  title : string;
  columns : string list;
  rows : row list;
  geomean : bool;
}

let ratio num den =
  if den = 0 then Na else Ratio (float_of_int num /. float_of_int den)

let labels algos = List.map (fun a -> a.Allocator.label) algos

(* Paper panel letters by k, e.g. "(a)"; none off the paper's k values. *)
let panel k letters =
  match List.assoc_opt k letters with Some l -> "(" ^ l ^ ")" | None -> ""

(* Every Suite program, prepared once at [m] and allocated once per
   column; [row] turns each program's allocations into its rows. *)
let sweep ?jobs m algos row =
  List.map
    (fun name ->
      let prepared = Pipeline.prepare m (Suite.program name) in
      row name prepared
        (List.map
           (fun algo -> Pipeline.allocate_program ?jobs algo m prepared)
           algos))
    Suite.names

let fig9_algos =
  [ Pipeline.briggs_aggressive; Pipeline.optimistic; Pipeline.pdgc_coalescing_only ]

let fig9 ?jobs ~k () =
  let per_test =
    sweep ?jobs (Machine.make ~k ()) (Pipeline.chaitin_base :: fig9_algos)
      (fun name prepared allocs ->
        (* One row per class and count, each column over the base's. *)
        let rows count =
          let row test cls =
            match List.map (fun a -> cls (count a)) allocs with
            | base :: ns -> { test; cells = List.map (fun n -> ratio n base) ns }
            | [] -> assert false
          in
          (* Integer rows for every test; float rows for the fp-heavy ones. *)
          row name (fun c -> c.Metrics.ints)
          :: (if List.mem name Suite.fp_names then
                [ row (name ^ " fp") (fun c -> c.Metrics.floats) ]
              else [])
        in
        ( rows (fun a ->
              Metrics.eliminated_moves ~before:prepared ~after:a.Pipeline.program),
          rows (fun a -> Metrics.spill_code a.Pipeline.results) ))
  in
  let table letters what rows =
    {
      title =
        Printf.sprintf "Fig. 9%s: %s (vs. chaitin+aggressive, k=%d)"
          (panel k letters) what k;
      columns = labels fig9_algos;
      rows = List.concat rows;
      geomean = true;
    }
  in
  [
    table [ (16, "a"); (32, "c") ] "eliminated moves ratio" (List.map fst per_test);
    table [ (16, "b"); (32, "d") ] "generated spill code ratio"
      (List.map snd per_test);
  ]

let fig10_algos =
  [ Pipeline.pdgc_coalescing_only; Pipeline.optimistic; Pipeline.pdgc_full ]

let fig10 ?jobs ~k () =
  [
    {
      title =
        Printf.sprintf "Fig. 10%s: simulated cycles, k=%d"
          (panel k [ (16, "a"); (24, "b"); (32, "c") ])
          k;
      columns = labels fig10_algos;
      rows =
        sweep ?jobs (Machine.make ~k ()) fig10_algos (fun test _ allocs ->
            { test; cells = List.map (fun a -> Cycles (Pipeline.cycles a)) allocs });
      geomean = false;
    };
  ]

(* Cycles at the middle-pressure model (k = 24), each column relative
   to column [base]. *)
let relative_cycles ?jobs ~title ~base algos =
  [
    {
      title;
      columns = labels algos;
      rows =
        sweep ?jobs Machine.middle_pressure algos (fun test _ allocs ->
            let cycles = List.map Pipeline.cycles allocs in
            let b = List.assq base (List.combine algos cycles) in
            { test; cells = List.map (fun c -> ratio c b) cycles });
      geomean = true;
    };
  ]

let fig11 ?jobs () =
  relative_cycles ?jobs
    ~title:"Fig. 11: elapsed time relative to full preferences (k=24)"
    ~base:Pipeline.pdgc_full
    [
      Pipeline.pdgc_coalescing_only;
      Pipeline.optimistic;
      Pipeline.briggs_aggressive;
      Pipeline.aggressive_volatility;
      Pipeline.pdgc_full;
    ]

let ablation_configs =
  (* Unregistered allocators: the ablation points are run directly,
     never looked up by name. *)
  let pdgc ?(rematerialize = false) label policy relax_order =
    Allocator.v ~name:"ablation" ~label
      (Pdgc.allocate_config
         { Pdgc.variant = Pdgc.Full_preferences; policy; relax_order; rematerialize })
  in
  [
    pdgc "paper (differential)" Pdgc_select.Differential true;
    pdgc "strongest-first" Pdgc_select.Strongest true;
    pdgc "fifo" Pdgc_select.Fifo true;
    pdgc "strict stack order" Pdgc_select.Differential false;
    pdgc ~rematerialize:true "with rematerialization" Pdgc_select.Differential
      true;
    Pipeline.priority_based;
  ]

let ablation ?jobs () =
  relative_cycles ?jobs
    ~title:"Ablation: cycles relative to the paper configuration (k=24)"
    ~base:(List.hd ablation_configs) ablation_configs

(* Positive ratios only; their logs are summed in the order given. *)
let geomean xs =
  match List.filter (fun x -> x > 0.0) xs with
  | [] -> 1.0
  | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
           /. float_of_int (List.length xs))

let print_table ppf t =
  let line label pp xs =
    Format.fprintf ppf "%-14s" label;
    List.iter (pp ppf) xs;
    Format.fprintf ppf "@,"
  in
  let pp_label ppf l = Format.fprintf ppf " %22s" l in
  let pp_cell ppf = function
    | Ratio x -> pp_label ppf (Printf.sprintf "%.3f" x)
    | Na -> pp_label ppf "n/a"
    | Cycles c -> Format.fprintf ppf " %22d" c
  in
  Format.fprintf ppf "@[<v>%s@," t.title;
  line "test" pp_label t.columns;
  List.iter (fun r -> line r.test pp_cell r.cells) t.rows;
  if t.geomean then begin
    (* Each column's ratios in reverse row order: the pinned means were
       summed in that order. *)
    let ratios =
      List.rev_map
        (fun r ->
          List.map (function Ratio x -> Some x | Na | Cycles _ -> None) r.cells)
        t.rows
    in
    line "geo. mean" pp_cell
      (List.mapi
         (fun i _ ->
           Ratio (geomean (List.filter_map (fun r -> List.nth r i) ratios)))
         t.columns)
  end;
  Format.fprintf ppf "@]"

let print ppf tables = List.iter (print_table ppf) tables

let print_all ?jobs ppf () =
  Format.fprintf ppf "%a@.@." Fig7.print ();
  Format.fprintf ppf "%a@." print (fig9 ?jobs ~k:16 ());
  Format.fprintf ppf "%a@.@." print (fig9 ?jobs ~k:32 ());
  List.iter
    (fun k -> Format.fprintf ppf "%a@.@." print (fig10 ?jobs ~k ()))
    [ 16; 24; 32 ];
  Format.fprintf ppf "%a@." print (fig11 ?jobs ())
