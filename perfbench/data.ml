(* Datasets, the deployed engine configuration, result canonicalisation
   and the write-statement generator shared by every workload.

   All inputs come from the workload seed: the τBench generator
   (Dcsd.generate + Simulate.run) for the data, and a separate stream
   of the same PRNG for the write texts. *)

module Engine = Sqleval.Engine
module Catalog = Sqleval.Catalog
module RS = Sqleval.Result_set
module Value = Sqldb.Value
module Date = Sqldb.Date
module Stratum = Taupsm.Stratum
module Dcsd = Taubench.Dcsd
module Simulate = Taubench.Simulate
module Datasets = Taubench.Datasets
module Prng = Taubench.Prng
module Json = Serve.Json

type dataset = { ds_name : string; shape : Dcsd.config; sim : Simulate.config }

let large = fst (Datasets.shape Taupsm.Heuristic.Large)

(* DS1 at ten times LARGE: the paper's 25K-change scale class. *)
let ds1_xl =
  {
    ds_name = "DS1-XL";
    shape =
      {
        Dcsd.n_items = 10 * large.Dcsd.n_items;
        n_authors = 10 * large.Dcsd.n_authors;
        n_publishers = 10 * large.Dcsd.n_publishers;
      };
    sim =
      Datasets.sim_config Datasets.DS1
        ~total_changes:(10 * Datasets.total_changes);
  }

let ds3_large =
  {
    ds_name = "DS3-LARGE";
    shape = large;
    sim = Datasets.sim_config Datasets.DS3 ~total_changes:Datasets.total_changes;
  }

let ds1_large =
  {
    ds_name = "DS1-LARGE";
    shape = large;
    sim = Datasets.sim_config Datasets.DS1 ~total_changes:Datasets.total_changes;
  }

let changes ds = ds.sim.Simulate.n_steps * ds.sim.Simulate.changes_per_step

(* Generate and load one dataset: the same steps as Datasets.load, with
   the benchmark's own shape and seed. *)
let load ~seed ds =
  let rng = Prng.create ~seed in
  let snapshot = Dcsd.generate rng ds.shape in
  let world = Simulate.run rng ds.sim snapshot in
  let e = Engine.create ~now:Datasets.now_date () in
  Stratum.install e;
  List.iter
    (fun schema ->
      let table = Sqldb.Table.create schema in
      List.iter (Sqldb.Table.insert table)
        (Simulate.rows_of_vtable
           (Simulate.world_table world schema.Sqldb.Schema.name));
      Sqldb.Database.add_table (Engine.database e) table)
    (Dcsd.schemas ~temporal:true);
  Taubench.Queries.install e;
  e

(* The configuration `taupsm_cli run` and `serve` deploy: Auto strategy
   and the constant-period memo on; compilation, jobs = 1 and every
   other option at the engine default. *)
let deploy e =
  let o = (Engine.catalog e).Catalog.options in
  o.Catalog.auto_strategy <- true;
  o.Catalog.memoize_constant_periods <- true

let config_json e =
  let o = (Engine.catalog e).Catalog.options in
  [
    ("strategy", Json.Str (if o.Catalog.auto_strategy then "auto" else "max"));
    ("cp_memo", Json.Bool o.Catalog.memoize_constant_periods);
    ("compile", Json.Bool o.Catalog.compile);
    ("jobs", Json.Int o.Catalog.jobs);
    ("plan_caching", Json.Bool o.Catalog.plan_caching);
    ("check_constraints", Json.Bool o.Catalog.check_constraints);
    ("nproc", Json.Int (Domain.recommended_domain_count ()));
  ]

let sizes_json ds e =
  [
    ("dataset", Json.Str ds.ds_name);
    ( "rows",
      Json.Obj
        (List.map (fun (t, n) -> (t, Json.Int n)) (Datasets.row_counts e)) );
    ("changes", Json.Int (changes ds));
  ]

(* The sequenced context every τPSM query of a workload runs over. *)
let context_start = Date.of_ymd ~y:2010 ~m:6 ~d:1
let context days = (context_start, Date.add_days context_start days)

(* ------------------------------------------------------------------ *)
(* Result canonicalisation                                              *)
(* ------------------------------------------------------------------ *)

(* A result as a sorted multiset of rendered rows, with value-equivalent
   rows over adjacent or overlapping periods coalesced first: MAX and
   PERST may fragment a sequenced result differently but must agree
   after coalescing. *)
let canon (rs : RS.t) : string list =
  let temporal =
    List.mem Taupsm.Names.begin_col rs.RS.cols
    && List.mem Taupsm.Names.end_col rs.RS.cols
  in
  let rs = if temporal then Stratum.coalesce_result rs else rs in
  List.sort compare
    (List.map
       (fun row ->
         String.concat "|" (Array.to_list (Array.map Value.to_string row)))
       rs.RS.rows)

(* A wire result (columns, JSON rows) back into a result set whose
   values compare the way the wire renders them, so a served answer and
   a direct one canonicalise identically. *)
let rs_of_wire (cols, rows) : RS.t =
  let is_period c = c = Taupsm.Names.begin_col || c = Taupsm.Names.end_col in
  let value c v =
    match v with
    | Json.Str s when is_period c -> (
        match Date.of_string s with Some d -> Value.Date d | None -> Value.Str s)
    | v -> Value.Str (Json.to_string v)
  in
  {
    RS.cols;
    rows = List.map (fun r -> Array.of_list (List.map2 value cols r)) rows;
  }

let canon_wire w = canon (rs_of_wire w)

let canon_direct (rs : RS.t) =
  canon_wire
    ( rs.RS.cols,
      List.map
        (fun r -> Array.to_list (Array.map Serve.Wire.json_of_value r))
        rs.RS.rows )

(* ------------------------------------------------------------------ *)
(* Writes                                                              *)
(* ------------------------------------------------------------------ *)

(* The write target of TEMPORAL MERGE: a table with a declared temporal
   primary key, so every merge is also a constraint check. *)
let n_skus = 200

let stock_setup =
  [
    "CREATE TABLE stock (sku VARCHAR(16), qty INTEGER, note VARCHAR(20)) \
     WITH VALIDTIME TEMPORAL PRIMARY KEY (sku)";
    Printf.sprintf
      "INSERT INTO stock (sku, qty, note, begin_time, end_time) VALUES %s"
      (String.concat ", "
         (List.init n_skus (fun i ->
              Printf.sprintf
                "('sku-%d', %d, 'initial', DATE '2010-01-01', DATE \
                 '9999-12-31')"
                i (10 + (i mod 7)))));
  ]

let install_stock e = List.iter (fun s -> ignore (Engine.exec e s)) stock_setup

type write_kind = Current_update | Publisher_update | Sequenced_update | Merge_patch

(* The serving mix, in every five writes: one current UPDATE of item,
   which the τPSM queries read, and two each of sequenced UPDATEs and
   merges, which split periods of stock. *)
let serve_mix =
  [ Current_update; Sequenced_update; Merge_patch; Sequenced_update; Merge_patch ]

(* Distinct write texts (fresh literals each time), cycling through
   [mix].  Current_update changes item, Publisher_update publisher. *)
let write_gen ~seed ~(shape : Dcsd.config) ~mix =
  let rng = Prng.create ~seed:(seed + 7919) in
  let kinds = Array.of_list mix in
  let i = ref (-1) in
  let date_in_history () = Date.add_days Dcsd.base_date (Prng.int rng 700) in
  fun () ->
    incr i;
    match kinds.(!i mod Array.length kinds) with
    | Current_update ->
        ( Current_update,
          Printf.sprintf "UPDATE item SET price = %d.%02d WHERE id = %d"
            (5 + Prng.int rng 90) (Prng.int rng 100)
            (Prng.int_range rng 1 shape.Dcsd.n_items) )
    | Publisher_update ->
        ( Publisher_update,
          Printf.sprintf "UPDATE publisher SET country = '%s' WHERE id = %d"
            (Prng.choose rng Dcsd.countries)
            (Prng.int_range rng 1 shape.Dcsd.n_publishers) )
    | Sequenced_update ->
        let b = date_in_history () in
        let e = Date.add_days b (1 + Prng.int rng 28) in
        ( Sequenced_update,
          Printf.sprintf
            "VALIDTIME [DATE '%s', DATE '%s') UPDATE stock SET qty = %d WHERE \
             sku = 'sku-%d'"
            (Date.to_string b) (Date.to_string e) (Prng.int rng 500)
            (Prng.int rng n_skus) )
    | Merge_patch ->
        let b = date_in_history () in
        let e = Date.add_days b (1 + Prng.int rng 60) in
        ( Merge_patch,
          Printf.sprintf
            "TEMPORAL MERGE INTO stock USING (SELECT 'sku-%d' AS sku, %d AS \
             qty, NULL AS note, DATE '%s' AS begin_time, DATE '%s' AS \
             end_time) MODE PATCH"
            (Prng.int rng n_skus) (Prng.int rng 500) (Date.to_string b)
            (Date.to_string e) )
