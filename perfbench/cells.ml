(* The 16 τPSM queries as (query, arm) cells, and the per-layer probes
   that time single calls into the stratum's public functions:
   Parser.parse_temporal_stmt, Stratum.decide, Stratum.transform and
   Stratum.exec_plan.  Counters come from the engine's own trace,
   read through Catalog.trace. *)

open Common
module Engine = Sqleval.Engine
module Catalog = Sqleval.Catalog
module Stratum = Taupsm.Stratum
module Queries = Taubench.Queries
module Observe = Taupsm.Observe

type arm = Max | Perst | Auto

let arm_name = function Max -> "max" | Perst -> "perst" | Auto -> "auto"

let strategy_of = function
  | Max -> Some Stratum.Max
  | Perst -> Some Stratum.Perst
  | Auto -> None

type query = {
  q : Queries.t;
  sql : string;
  ts : Sqlast.Ast.temporal_stmt;
  arms : arm list;  (* Auto last; PERST only where it can express q *)
}

let queries ~days =
  List.map
    (fun (q : Queries.t) ->
      let sql = Queries.sequenced ~context:(Data.context days) q in
      {
        q;
        sql;
        ts = Sqlparse.Parser.parse_temporal_stmt sql;
        arms = (if q.Queries.perst_supported then [ Max; Perst; Auto ] else [ Max; Auto ]);
      })
    Queries.all

let forced_arms = [ Max; Perst ]
let has_arm qy arm = List.mem arm qy.arms

(* ------------------------------------------------------------------ *)
(* Per-layer probes (traced run only)                                  *)
(* ------------------------------------------------------------------ *)

let us s = s *. 1e6

(* Median over items of the per-item median of 5 timings, each timing
   the mean of [batch] back-to-back calls (single calls are too short
   for the clock).  Items whose call raises are skipped. *)
let per_item_median ~batch items f =
  median
    (List.filter_map
       (fun x ->
         match
           List.init 5 (fun _ ->
               fst
                 (timed (fun () ->
                      for _ = 1 to batch do
                        ignore (f x)
                      done))
               /. float_of_int batch)
         with
         | ts -> Some (median ts)
         | exception _ -> None)
       items)

let parse_us texts =
  us (per_item_median ~batch:50 texts Sqlparse.Parser.parse_temporal_stmt)

let decide_us e qs =
  us (per_item_median ~batch:50 qs (fun qy -> Stratum.decide e qy.ts))

let forced_stmts qs =
  List.concat_map
    (fun qy ->
      List.filter_map
        (fun arm ->
          if has_arm qy arm then Option.map (fun s -> (qy.ts, s)) (strategy_of arm)
          else None)
        forced_arms)
    qs

(* Uncached rewrite: the plan cache is emptied before every call. *)
let transform_us e stmts =
  let cat = Engine.catalog e in
  let t =
    per_item_median ~batch:10 stmts (fun (ts, strategy) ->
        Hashtbl.reset cat.Catalog.plan_cache;
        Stratum.transform ~strategy e ts)
  in
  (* leave the cache warm again for whatever runs next *)
  List.iter
    (fun (ts, strategy) ->
      try ignore (Stratum.transform ~strategy e ts) with _ -> ())
    stmts;
  us t

(* Stratum.exec_plan on the transformed plan of every forced cell, with
   the engine's trace reset per arm so each arm's evaluator counters
   stand alone.  Returns the exec.<q>.<arm>_s metrics and, per arm, the
   counter snapshot. *)
let exec_cells e qs =
  let cat = Engine.catalog e in
  let obs = Catalog.trace cat in
  let per_arm arm =
    Trace.reset obs;
    let strategy = Option.get (strategy_of arm) in
    let cells =
      List.filter_map
        (fun qy ->
          if not (has_arm qy arm) then None
          else
            let plan = Stratum.transform ~strategy e qy.ts in
            let tt_mode = Stratum.tt_mode_of e qy.ts in
            match timed (fun () -> Stratum.exec_plan ~tt_mode e plan) with
            | dt, _ ->
                Some
                  (metric
                     (Printf.sprintf "exec.%s.%s_s" qy.q.Queries.id (arm_name arm))
                     "s" dt)
            | exception ex ->
                failure
                  (Printf.sprintf "exec_plan %s %s: %s" qy.q.Queries.id
                     (arm_name arm) (Printexc.to_string ex));
                None)
        qs
    in
    (cells, Observe.metrics_of obs)
  in
  let mc, mm = per_arm Max in
  let pc, pm = per_arm Perst in
  Trace.reset obs;
  (mc @ pc, [ (Max, mm); (Perst, pm) ])

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Evaluator and compiler counters of one arm's pass over the suite. *)
let arm_counter_metrics (arm, (m : Observe.metrics)) =
  let a = arm_name arm in
  [
    metric (Printf.sprintf "sqleval.%s.rows_probed" a) "count"
      (float_of_int m.Observe.rows_probed);
    metric (Printf.sprintf "sqleval.%s.rows_matched" a) "count"
      (float_of_int m.Observe.rows_matched);
    metric (Printf.sprintf "sqleval.%s.match_ratio" a) "ratio"
      (ratio m.Observe.rows_matched m.Observe.rows_probed);
    metric (Printf.sprintf "sqleval.%s.scans_full" a) "count"
      (float_of_int m.Observe.scans_full);
    metric (Printf.sprintf "sqleval.%s.scans_indexed" a) "count"
      (float_of_int m.Observe.scans_indexed);
    metric (Printf.sprintf "sqleval.%s.scans_hash" a) "count"
      (float_of_int m.Observe.scans_hash);
    metric (Printf.sprintf "compile.%s.compiled_frac" a) "ratio"
      (ratio m.Observe.selects_compiled
         (m.Observe.selects_compiled + m.Observe.selects_interpreted));
  ]

(* Constant periods and routine calls of one MAX pass over the suite. *)
let cp_metrics arm_counters =
  match List.assoc_opt Max arm_counters with
  | Some (m : Observe.metrics) ->
      [
        metric "cp.periods" "count" (float_of_int m.Observe.constant_periods);
        metric "cp.routine_calls" "count" (float_of_int m.Observe.routine_calls);
      ]
  | None -> []

(* Over the cells where the measured MAX and PERST medians differ by
   more than 2x: the share where Cost_model.choose_for picks the faster
   arm.  1.0 when no cell differs that much. *)
let rank_agreement e qs ~median_of =
  let judged =
    List.filter_map
      (fun qy ->
        if not (has_arm qy Perst) then None
        else
          let m = median_of qy Max and p = median_of qy Perst in
          if Float.is_nan m || Float.is_nan p || max m p < 2. *. min m p then None
          else
            let faster = if m < p then Stratum.Max else Stratum.Perst in
            Some (Taupsm.Cost_model.choose_for e qy.ts = faster))
      qs
  in
  let n = List.length judged in
  if n = 0 then 1.0
  else float_of_int (List.length (List.filter Fun.id judged)) /. float_of_int n

(* The stratum's per-layer metrics, shared by every workload: the
   parse / decide / rewrite / exec_plan probes over [probe_qs] (plus
   [write_texts] for parsing) on [e], and the adaptive chooser's quality
   over [measured_qs], judged by the measured per-cell medians. *)
let stratum_metrics e ~probe_qs ~write_texts ~measured_qs ~median_of =
  let parse = parse_us (List.map (fun qy -> qy.sql) probe_qs @ write_texts) in
  let decide = decide_us e probe_qs in
  let transform = transform_us e (forced_stmts probe_qs) in
  let cells, arm_counters = exec_cells e probe_qs in
  let best_of arms =
    geomean
      (List.map
         (fun qy ->
           List.fold_left min infinity
             (List.filter_map
                (fun arm -> if has_arm qy arm then Some (median_of qy arm) else None)
                arms))
         measured_qs)
  in
  [
    metric "sqlparse.parse_us" "us" parse;
    metric "strategy.decide_us" "us" decide;
    metric "stratum.transform_us" "us" transform;
    metric "strategy.regret" "ratio" (best_of [ Auto ] /. best_of forced_arms);
    metric "cost_model.rank_agreement" "ratio"
      (rank_agreement e measured_qs ~median_of);
  ]
  @ cells
  @ List.concat_map arm_counter_metrics arm_counters
  @ cp_metrics arm_counters
