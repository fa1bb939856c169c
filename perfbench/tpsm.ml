(* The tpsm-* workloads: the 16 τPSM queries, sequenced over one
   context, each run forced-MAX, forced-PERST and Auto by one
   closed-loop client in-process through Stratum.exec.  Beside the τPSM
   cells the same client runs current point SELECTs of publisher, and
   applies current UPDATEs of publisher to a durable copy of the data
   (WAL sync as `taupsm_cli run --db-dir` deploys it), so write latency
   is measured without disturbing what the reads see.  One write kind
   keeps the write latencies unimodal, so their median and p90 do not
   sit on the boundary between kinds.  Publisher rather than item: a
   point statement scans its table, and on DS1-XL a scan of item's 11K
   versions leaves the cache, which made the p90 follow the host's
   memory contention (spread 0.27-0.40 over ten seeds). *)

open Common
open Cells
module Persist = Sqleval.Persist
module Eval = Sqleval.Eval

type state = {
  e : Engine.t;
  qs : query list;
  refs : (string, string list) Hashtbl.t;  (* query id -> canonical result *)
  est : (string * arm, float) Hashtbl.t;  (* last warm-up seconds per cell *)
  w : Engine.t;  (* durable copy that takes the writes *)
  persist : Persist.handle;
  store_dir : string;
  next_write : unit -> Data.write_kind * string;
  probe_write : unit -> Data.write_kind * string;  (* the serving mix *)
  point_sql : unit -> string;  (* current point SELECTs *)
  point_read : unit -> Load.op;  (* the same, for the serve probe *)
  mean_periods : float;
}

let wal_policy = Durable.Wal.Batch 16

(* Seconds of repetitions per cheap cell per pass, and the cap. *)
let cell_budget = 0.05
let max_reps = 100
let writes_per_query = 8
let points_per_query = 80
let serve_probe_seconds = 3.

let key qy arm = (qy.q.Queries.id, arm)

let exec_arm e qy arm = Stratum.exec ?strategy:(strategy_of arm) e qy.ts

let rows_of what = function
  | Eval.Rows rs -> Some rs
  | _ ->
      failure (what ^ ": no rows");
      None

(* Warm-up, part of set-up: run Auto on each query until its decision
   is calibrated (the adaptive chooser's exploration happens here), then
   run once any forced arm Auto never took.  Every arm's first result
   becomes the reference; all arms must agree. *)
let warm_up e qs =
  let refs = Hashtbl.create 16 and est = Hashtbl.create 64 in
  let arm_results = Hashtbl.create 64 in
  let record qy arm dt r =
    Hashtbl.replace est (key qy arm) dt;
    if arm <> Auto && not (Hashtbl.mem arm_results (key qy arm)) then
      Option.iter
        (fun rs -> Hashtbl.replace arm_results (key qy arm) (Data.canon rs))
        (rows_of qy.q.Queries.id r)
  in
  List.iter
    (fun qy ->
      let rec auto_runs n =
        let chosen, src = Stratum.decide e qy.ts in
        match timed (fun () -> Stratum.exec e qy.ts) with
        | exception ex ->
            failure
              (Printf.sprintf "warm-up %s: %s" qy.q.Queries.id
                 (Printexc.to_string ex))
        | dt, r ->
            let arm = match chosen with Stratum.Max -> Max | Stratum.Perst -> Perst in
            record qy arm dt r;
            Hashtbl.replace est (key qy Auto) dt;
            let settled =
              src = Stratum.Calibrated
              || ((not (has_arm qy Perst)) && n >= 2)
              || n >= 5
            in
            if not settled then auto_runs (n + 1)
      in
      auto_runs 1;
      List.iter
        (fun arm ->
          if has_arm qy arm && not (Hashtbl.mem arm_results (key qy arm)) then
            match timed (fun () -> exec_arm e qy arm) with
            | dt, r -> record qy arm dt r
            | exception ex ->
                failure
                  (Printf.sprintf "warm-up %s %s: %s" qy.q.Queries.id
                     (arm_name arm) (Printexc.to_string ex)))
        forced_arms;
      match
        List.filter_map
          (fun arm -> Hashtbl.find_opt arm_results (key qy arm))
          forced_arms
      with
      | [] -> ()
      | first :: rest ->
          Hashtbl.replace refs qy.q.Queries.id first;
          List.iter
            (fun r ->
              check (qy.q.Queries.id ^ ": MAX and PERST results differ") (r = first))
            rest)
    qs;
  (refs, est)

(* Mean constant periods per query over the context, from the cost
   model's estimate (the count MAX iterates). *)
let mean_periods e qs =
  let ns =
    List.filter_map
      (fun qy ->
        match
          Taupsm.Cost_model.estimate e
            ~context:(Taupsm.Cost_model.context_of_stmt e qy.ts)
            qy.ts
        with
        | est -> Some (float_of_int est.Taupsm.Cost_model.n_cp)
        | exception _ -> None)
      qs
  in
  sum ns /. float_of_int (max 1 (List.length ns))

(* Set-up: data generation and load three times (median), then
   configuration, warm-up and the durable write copy, once. *)
let setup ds ~seed ~days ~name =
  let shape = ds.Data.shape in
  let n_items = shape.Taubench.Dcsd.n_items in
  let loads = List.init 3 (fun _ -> timed (fun () -> Data.load ~seed ds)) in
  let t_load = median (List.map fst loads) in
  let e = snd (List.hd loads) in
  let t_rest, st =
    timed (fun () ->
        Data.deploy e;
        let qs = queries ~days in
        let refs, est = warm_up e qs in
        let w = Engine.copy e in
        Data.install_stock w;
        let store_dir = fresh_dir name in
        let persist = Persist.attach ~policy:wal_policy ~dir:store_dir w in
        {
          e;
          qs;
          refs;
          est;
          w;
          persist;
          store_dir;
          next_write = Data.write_gen ~seed ~shape ~mix:[ Data.Publisher_update ];
          probe_write = Data.write_gen ~seed ~shape ~mix:Data.serve_mix;
          point_sql =
            Load.point_sqls ~seed ~select:"SELECT name, country FROM publisher"
              ~n:shape.Taubench.Dcsd.n_publishers;
          point_read = Load.point_reads ~seed ~n_items;
          mean_periods = 0.;
        })
  in
  ({ st with mean_periods = mean_periods e st.qs }, t_load +. t_rest)

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type samples = {
  cells : (string * arm, float list ref) Hashtbl.t;
  mutable writes : float list;
  mutable points : float list;
}

let run_cell st s qy arm =
  let est = Option.value ~default:1. (Hashtbl.find_opt st.est (key qy arm)) in
  let reps = max 1 (min max_reps (int_of_float (cell_budget /. est))) in
  let acc =
    match Hashtbl.find_opt s.cells (key qy arm) with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace s.cells (key qy arm) l;
        l
  in
  for k = 1 to reps do
    attempt ();
    match timed (fun () -> exec_arm st.e qy arm) with
    | dt, r ->
        acc := dt :: !acc;
        if k = 1 then
          Option.iter
            (fun rs ->
              if Some (Data.canon rs) <> Hashtbl.find_opt st.refs qy.q.Queries.id
              then
                failure
                  (Printf.sprintf "%s %s: wrong result" qy.q.Queries.id
                     (arm_name arm)))
            (rows_of qy.q.Queries.id r)
    | exception ex ->
        failure
          (Printf.sprintf "%s %s: %s" qy.q.Queries.id (arm_name arm)
             (Printexc.to_string ex))
  done

let run_write st s =
  let _, sql = st.next_write () in
  attempt ();
  match timed (fun () -> Stratum.exec_sql st.w sql) with
  | dt, _ -> s.writes <- dt :: s.writes
  | exception ex ->
      failure (Printf.sprintf "write %s: %s" sql (Printexc.to_string ex))

let run_point st s =
  let sql = st.point_sql () in
  attempt ();
  match timed (fun () -> Stratum.exec_sql st.e sql) with
  | dt, Eval.Rows _ -> s.points <- dt :: s.points
  | _ -> failure ("point read without rows: " ^ sql)
  | exception ex ->
      failure (Printf.sprintf "point read %s: %s" sql (Printexc.to_string ex))

(* Passes over the suite until the deadline; the first pass always
   completes so every cell has a sample. *)
let measure st ~seconds =
  let s = { cells = Hashtbl.create 64; writes = []; points = [] } in
  let deadline = now () +. seconds in
  let first = ref true in
  let stop = ref false in
  while not !stop do
    List.iter
      (fun qy ->
        if !first || now () < deadline then begin
          List.iter (run_cell st s qy) qy.arms;
          for _ = 1 to writes_per_query do
            run_write st s
          done;
          for _ = 1 to points_per_query do
            run_point st s
          done
        end)
      st.qs;
    first := false;
    if now () >= deadline then stop := true
  done;
  s

let cell_median s qy arm =
  match Hashtbl.find_opt s.cells (key qy arm) with
  | Some l -> median !l
  | None -> nan

let arm_medians st s arm =
  List.filter_map
    (fun qy -> if has_arm qy arm then Some (cell_median s qy arm) else None)
    st.qs

let ms x = 1000. *. x

let end_to_end st s ~setup_s =
  let auto = arm_medians st s Auto in
  [
    metric "max_geomean_ms" "ms" (ms (geomean (arm_medians st s Max)));
    metric "perst_geomean_ms" "ms" (ms (geomean (arm_medians st s Perst)));
    metric "auto_geomean_ms" "ms" (ms (geomean auto));
    metric "auto_suite_s" "s" (sum auto);
    metric "read_p50_ms" "ms" (ms (quantile s.points 0.5));
    metric "read_p90_ms" "ms" (ms (quantile s.points 0.9));
    metric "write_p50_ms" "ms" (ms (quantile s.writes 0.5));
    metric "write_p90_ms" "ms" (ms (quantile s.writes 0.9));
    metric "setup_s" "s" setup_s;
    metric "live_heap_mb" "MB" (live_heap_mb ());
  ]

(* Recovery of the write copy's store must reproduce the live copy,
   hence every acknowledged write.  Returns the recovery seconds. *)
let check_recovery st =
  attempt ();
  match timed (fun () -> Persist.recover ~dir:st.store_dir ()) with
  | dt, (r, _) ->
      (match
         Taupsm.Resilient.db_diff (Engine.database r) (Engine.database st.w)
       with
      | None -> ()
      | Some d -> failure ("recovered store differs from live engine: " ^ d));
      dt
  | exception ex ->
      failure ("recovery: " ^ Printexc.to_string ex);
      nan

let info st ds ~name ~days =
  print_info
    ([
       ("workload", Json.Str name);
       ("loop", Json.Str "closed, 1 client, in-process");
       ("context_days", Json.Int days);
       ("mean_constant_periods", Json.Float st.mean_periods);
       ("write_wal_policy", Json.Str "batch:16");
     ]
    @ Data.sizes_json ds st.e
    @ Data.config_json st.e)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let observe_on e =
  (Engine.catalog e).Catalog.options.Catalog.observe <- true;
  Trace.reset (Catalog.trace (Engine.catalog e))

let counter e name = Trace.get_count (Catalog.trace (Engine.catalog e)) name

(* The serving layer's figures at this data scale: the write copy is
   served for a few seconds with the serve-mixed mix of writes (the
   only merges of a tpsm run) beside current point SELECTs.  Draining
   the server syncs and detaches the copy's store. *)
let serve_probe st =
  let server = Load.start st.w st.persist in
  let before = Load.stats server in
  let p =
    Load.run server ~next_read:st.point_read ~next_write:st.probe_write
      ~seconds:serve_probe_seconds
  in
  let after = Load.stats server in
  Load.stop server;
  Load.count_outcomes p;
  metric "merge.p50_ms" "ms"
    (ms (median (List.map Load.latency (Load.writes ~kind:Data.Merge_patch p))))
  :: Load.layer_metrics ~before ~after p

let per_layer st ~seconds ~setup_s =
  let half = seconds /. 2. in
  let a = measure st ~seconds:half in
  let e2e_a = end_to_end st a ~setup_s in
  observe_on st.e;
  observe_on st.w;
  let b = measure st ~seconds:half in
  let e2e_b = end_to_end st b ~setup_s in
  let get l n = (List.find (fun m -> m.name = n) l).value in
  let m = Observe.metrics_of (Catalog.trace (Engine.catalog st.e)) in
  let mispredicts = counter st.e "strategy.mispredict" in
  let rescans = counter st.e "cp_memo.rescans" in
  let n_writes = List.length b.writes in
  let fsyncs = counter st.w "wal.fsyncs" in
  let wal_bytes = counter st.w "wal.bytes" in
  let stratum =
    stratum_metrics st.e ~probe_qs:st.qs
      ~write_texts:(List.init 30 (fun _ -> snd (st.probe_write ())))
      ~measured_qs:st.qs ~median_of:(cell_median a)
  in
  let served = serve_probe st in
  let recover_s = check_recovery st in
  let merge_segments = counter st.w "merge.segments" in
  let merge_writes = counter st.w "merge.writes" in
  stratum
  @ [
      metric "stratum.plan_cache_hit_ratio" "ratio" (Observe.plan_cache_hit_rate m);
      metric "stratum.plan_cache_entries" "count"
        (float_of_int (Hashtbl.length (Engine.catalog st.e).Catalog.plan_cache));
      metric "strategy.mispredicts" "count" (float_of_int mispredicts);
      metric "cp_memo.rescans" "count" (float_of_int rescans);
      metric "merge.segments" "count" (float_of_int merge_segments);
      metric "merge.writes" "count" (float_of_int merge_writes);
      metric "durable.fsyncs_per_commit" "ratio" (ratio fsyncs n_writes);
      metric "durable.wal_bytes_per_commit" "bytes" (ratio wal_bytes n_writes);
      metric "durable.recover_s" "s" recover_s;
    ]
  @ served
  @ [
      metric "observe.trace_overhead" "ratio"
        (get e2e_b "auto_geomean_ms" /. get e2e_a "auto_geomean_ms");
    ]

let run ds ~name ~days (args : args) =
  let st, setup_s = setup ds ~seed:args.seed ~days ~name in
  info st ds ~name ~days;
  let ms =
    if args.trace then per_layer st ~seconds:args.seconds ~setup_s
    else begin
      let s = measure st ~seconds:args.seconds in
      Persist.sync st.persist;
      ignore (check_recovery st);
      Persist.detach st.persist;
      end_to_end st s ~setup_s
    end
  in
  rm_rf st.store_dir;
  ms
