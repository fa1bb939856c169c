(* Interval-index tests: the qcheck equivalence property against a
   naive filter, edge cases, and the evaluator-level ablation — with
   the index on and off, sequenced evaluation must produce identical
   results under both MAX and PERST.  Also pins the stratum's
   transformed-plan cache: physical reuse across executions and
   invalidation on DDL. *)

module II = Sqldb.Interval_index
module Date = Sqldb.Date
module Value = Sqldb.Value
module Engine = Sqleval.Engine
module Catalog = Sqleval.Catalog
module RS = Sqleval.Result_set
module Stratum = Taupsm.Stratum
module Datasets = Taubench.Datasets
module Queries = Taubench.Queries

(* ------------------------------------------------------------------ *)
(* Property: indexed overlap = naive filter                            *)
(* ------------------------------------------------------------------ *)

(* An item: Some (b, e) indexed interval, or None (a residual the index
   must return on every probe).  Lengths range over negative (inverted),
   zero (empty) and ordinary periods; some ends are Date.forever. *)
let gen_item =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map2
            (fun b len -> Some (b, b + len))
            (int_range 0 100) (int_range (-5) 30) );
        (2, map (fun b -> Some (b, Date.forever)) (int_range 0 100));
        (1, return None);
      ])

let gen_case =
  QCheck.Gen.(
    triple
      (list_size (int_range 0 60) gen_item)
      (int_range (-10) 120) (int_range (-5) 40))

let arb_case =
  QCheck.make gen_case ~print:(fun (items, b, len) ->
      Printf.sprintf "%d items, probe [%d, %d)" (List.length items) b (b + len))

(* Naive reference: residuals always match; an interval matches the
   half-open overlap test. *)
let naive items ~begin_ ~end_ =
  List.filter
    (fun (_, it) ->
      match it with
      | None -> true
      | Some (b, e) -> b < end_ && e > begin_)
    items

let prop_matches_naive (items, pb, plen) =
  let items = List.mapi (fun i it -> (i, it)) items in
  let idx = II.build ~extract:snd (Array.of_list items) in
  let pe = pb + plen in
  II.overlapping idx ~begin_:pb ~end_:pe = naive items ~begin_:pb ~end_:pe

(* The layout a loaded τBench table has ({!Taubench.Simulate.rows_of_vtable}):
   closed history versions in the order the changes happened, then every
   current version, ending at forever.  Changes hit random rows at
   non-decreasing instants; probes are narrow windows (zero to three
   days) anywhere around the history. *)
let gen_vtable_case =
  QCheck.Gen.(
    triple (int_range 1 12)
      (list_size (int_range 0 80) (pair (int_range 0 11) (int_range 0 3)))
      (pair (int_range (-5) 160) (int_range 0 3)))

let arb_vtable_case =
  QCheck.make gen_vtable_case ~print:(fun (n, changes, (off, len)) ->
      Printf.sprintf "%d rows, %d changes, probe [+%d, +%d)" n
        (List.length changes) off (off + len))

let prop_vtable_layout (n, changes, (off, len)) =
  let module Sim = Taubench.Simulate in
  let base = Taubench.Dcsd.base_date in
  let vt = Sim.vtable_of_rows (List.init n (fun i -> [| Value.Int i |])) in
  ignore
    (List.fold_left
       (fun t (row, step) ->
         let t = t + step in
         Sim.change_row vt (row mod n) t ~update:(fun d ->
             [| Value.Int (Value.to_int_exn d.(0) + 100) |]);
         t)
       base changes);
  let period (r : Value.t array) =
    match (r.(1), r.(2)) with
    | Value.Date b, Value.Date e -> Some (b, e)
    | _ -> None
  in
  let items = List.mapi (fun i r -> (i, period r)) (Sim.rows_of_vtable vt) in
  let idx = II.build ~extract:snd (Array.of_list items) in
  let pb = base + off in
  II.overlapping idx ~begin_:pb ~end_:(pb + len)
  = naive items ~begin_:pb ~end_:(pb + len)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:500 ~name:"indexed overlap = naive filter"
        arb_case prop_matches_naive;
      QCheck.Test.make ~count:200 ~name:"stabbing = [at, at+1) overlap"
        arb_case
        (fun (items, at, _) ->
          let items = List.mapi (fun i it -> (i, it)) items in
          let idx = II.build ~extract:snd (Array.of_list items) in
          II.stabbing idx ~at = naive items ~begin_:at ~end_:(at + 1));
      QCheck.Test.make ~count:300
        ~name:"history-then-current layout, narrow windows = naive filter"
        arb_vtable_case prop_vtable_layout;
    ]

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  let idx = II.build ~extract:(fun x -> Some x) [||] in
  Alcotest.(check int) "length" 0 (II.length idx);
  Alcotest.(check (list (pair int int)))
    "no matches" []
    (II.overlapping idx ~begin_:min_int ~end_:max_int)

let test_all_residual () =
  let idx = II.build ~extract:(fun _ -> None) [| "a"; "b"; "c" |] in
  Alcotest.(check int) "residuals" 3 (II.residual_count idx);
  Alcotest.(check (list string))
    "every probe returns the residuals in order" [ "a"; "b"; "c" ]
    (II.overlapping idx ~begin_:5 ~end_:5)

let test_forever_and_order () =
  let items = [| (10, 20); (0, Date.forever); (15, 16); (30, 30) |] in
  let idx = II.build ~extract:(fun x -> Some x) items in
  (* A current-style probe: rows whose end is past forever - 1. *)
  Alcotest.(check (list (pair int int)))
    "forever rows" [ (0, Date.forever) ]
    (II.overlapping idx ~begin_:(Date.forever - 1) ~end_:max_int);
  (* Matches come back in the original array order, not begin order. *)
  Alcotest.(check (list (pair int int)))
    "original order" [ (10, 20); (0, Date.forever); (15, 16) ]
    (II.overlapping idx ~begin_:12 ~end_:18);
  (* The raw half-open test is applied verbatim: the empty period
     (30, 30) matches a probe that strictly contains its point but not
     one that merely touches it.  Exact semantics (Period.overlaps says
     an empty period overlaps nothing) are the re-checked conjuncts'
     job; the index only promises a superset. *)
  Alcotest.(check (list (pair int int)))
    "empty period inside the probe" [ (0, Date.forever); (30, 30) ]
    (II.overlapping idx ~begin_:25 ~end_:40);
  Alcotest.(check (list (pair int int)))
    "empty period at the probe edge" [ (0, Date.forever) ]
    (II.overlapping idx ~begin_:30 ~end_:40)

(* ------------------------------------------------------------------ *)
(* Evaluator ablation: index on = index off                            *)
(* ------------------------------------------------------------------ *)

let ds1 =
  lazy
    (let e =
       Datasets.load { Datasets.ds = Datasets.DS1; size = Taupsm.Heuristic.Small }
     in
     Queries.install e;
     e)

let context = (Date.of_ymd ~y:2010 ~m:6 ~d:1, Date.of_ymd ~y:2010 ~m:9 ~d:1)

let run_with ~index strategy (q : Queries.t) : RS.t =
  let e = Engine.copy (Lazy.force ds1) in
  (Engine.catalog e).Catalog.options.Catalog.temporal_index <- index;
  match Stratum.exec_sql ~strategy e (Queries.sequenced ~context q) with
  | Sqleval.Eval.Rows rs -> rs
  | _ -> Alcotest.fail "expected rows"

let rs_equal (a : RS.t) (b : RS.t) =
  a.RS.cols = b.RS.cols
  && List.length a.RS.rows = List.length b.RS.rows
  && List.for_all2
       (fun r1 r2 ->
         Array.length r1 = Array.length r2 && Array.for_all2 Value.equal r1 r2)
       a.RS.rows b.RS.rows

let test_ablation_identical () =
  let q = Queries.find "q2" in
  List.iter
    (fun strategy ->
      let on = run_with ~index:true strategy q in
      let off = run_with ~index:false strategy q in
      Alcotest.(check bool)
        (Printf.sprintf "%s: indexed = unindexed"
           (Stratum.strategy_to_string strategy))
        true (rs_equal on off))
    [ Stratum.Max; Stratum.Perst ]

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

let test_plan_cache () =
  let e = Engine.copy (Lazy.force ds1) in
  let q = Queries.find "q2" in
  let ts =
    Sqlparse.Parser.parse_temporal_stmt (Queries.sequenced ~context q)
  in
  (* First execution registers the max_ routines (bumping the catalog
     generation); from the second on the token is stable. *)
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  let p1 = Stratum.transform ~strategy:Stratum.Max e ts in
  let p2 = Stratum.transform ~strategy:Stratum.Max e ts in
  Alcotest.(check bool) "plan physically reused" true (p1 == p2);
  ignore (Engine.exec e "CREATE TABLE pc_probe (x INTEGER)");
  let p3 = Stratum.transform ~strategy:Stratum.Max e ts in
  Alcotest.(check bool) "DDL invalidates the cached plan" true (p3 != p1);
  (* The cached and re-derived plans are the same transformation. *)
  Alcotest.(check bool) "re-derived plan is equal" true (p3 = p1)

let test_plan_cache_off () =
  let e = Engine.copy (Lazy.force ds1) in
  (Engine.catalog e).Catalog.options.Catalog.plan_caching <- false;
  let q = Queries.find "q2" in
  let ts =
    Sqlparse.Parser.parse_temporal_stmt (Queries.sequenced ~context q)
  in
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  let p1 = Stratum.transform ~strategy:Stratum.Max e ts in
  let p2 = Stratum.transform ~strategy:Stratum.Max e ts in
  Alcotest.(check bool) "caching off: plans re-derived" true (p1 != p2)

let suite =
  [
    ( "interval-index",
      qcheck_tests
      @ [
          Alcotest.test_case "empty index" `Quick test_empty;
          Alcotest.test_case "all-residual index" `Quick test_all_residual;
          Alcotest.test_case "forever ends, order, empty periods" `Quick
            test_forever_and_order;
          Alcotest.test_case "sequenced results identical with index on/off"
            `Quick test_ablation_identical;
          Alcotest.test_case "plan cache reuses and invalidates" `Quick
            test_plan_cache;
          Alcotest.test_case "plan cache can be disabled" `Quick
            test_plan_cache_off;
        ] );
  ]
