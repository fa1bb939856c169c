(* Plan-compilation tests: closure-compiled evaluation must be
   row-for-row identical to the tree-walking interpreter.  The suite
   runs the 16 τPSM queries under {compiled, interpreted} × jobs {1, 4}
   against one interpreted-serial baseline, asserts the compiled path
   actually fired (not silently falling back everywhere), checks the
   per-query compiled/interpreted counters, and closes with a qcheck
   property comparing the two evaluators on randomly generated temporal
   databases seeded with NULL keys and empty ([b, b)) periods. *)

module Engine = Sqleval.Engine
module Catalog = Sqleval.Catalog
module RS = Sqleval.Result_set
module Value = Sqldb.Value
module Date = Sqldb.Date
module Stratum = Taupsm.Stratum
module Datasets = Taubench.Datasets
module Queries = Taubench.Queries

let rows_of rs =
  List.map (fun r -> List.map Value.to_string (Array.to_list r)) rs.RS.rows

(* ------------------------------------------------------------------ *)
(* Compiled ≡ interpreted over the τPSM benchmark                      *)
(* ------------------------------------------------------------------ *)

let small_ds1 =
  lazy
    (Datasets.load { Datasets.ds = Datasets.DS1; size = Taupsm.Heuristic.Small })

let load_fresh () =
  let e = Engine.copy (Lazy.force small_ds1) in
  Queries.install e;
  e

let ctx = (Date.of_ymd ~y:2010 ~m:3 ~d:1, Date.of_ymd ~y:2010 ~m:4 ~d:15)

let run_query ~compile ~jobs q =
  let e = load_fresh () in
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.observe <- true;
  cat.Catalog.options.Catalog.compile <- compile;
  let rs =
    Stratum.query ~strategy:Stratum.Max ~jobs e
      (Queries.sequenced ~context:ctx q)
  in
  let c = Trace.get_count (Catalog.trace cat) in
  (rs.RS.cols, rows_of rs, c "compile.compiled", c "compile.interpreted")

let test_equivalence () =
  let compiled_total = ref 0 in
  List.iter
    (fun q ->
      (* interpreted serial is the baseline the other three must hit *)
      let cols0, rows0, comp0, _ = run_query ~compile:false ~jobs:1 q in
      Alcotest.(check int)
        (q.Queries.id ^ ": interpreter never counts compiled")
        0 comp0;
      List.iter
        (fun (compile, jobs) ->
          let name =
            Printf.sprintf "%s %s jobs=%d" q.Queries.id
              (if compile then "compiled" else "interpreted")
              jobs
          in
          let cols, rows, comp, _ = run_query ~compile ~jobs q in
          Alcotest.(check (list string)) (name ^ ": columns") cols0 cols;
          Alcotest.(check (list (list string)))
            (name ^ ": rows, in order")
            rows0 rows;
          if (not compile) && comp > 0 then
            Alcotest.failf "%s: counted %d compiled SELECT(s)" name comp;
          if compile && jobs = 1 then compiled_total := !compiled_total + comp)
        [ (true, 1); (false, 4); (true, 4) ])
    Queries.all;
  (* the compiled path must carry real weight across the suite, not
     punt to the interpreter fallback on every query *)
  Alcotest.(check bool)
    (Printf.sprintf "compiled SELECTs across the suite (%d)" !compiled_total)
    true
    (!compiled_total >= 16)

(* ------------------------------------------------------------------ *)
(* Run-invariant slots and stored-function calls                       *)
(* ------------------------------------------------------------------ *)

(* A compiled plan evaluates each reference to a PSM parameter or
   variable, or to an outer query's column, once per run (a slot) and
   calls stored functions directly.  Each query below puts such
   references in one role — hash key, period-window bound, residual
   check, projection, ORDER BY key — and must answer exactly as the
   interpreter does, in order; where the SELECT has no subquery, the
   compiled run must not call back into the interpreter per row. *)
let slot_engine () =
  let e = Engine.create ~now:(Date.of_ymd ~y:2010 ~m:12 ~d:1) () in
  Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE p (k INTEGER, y INTEGER) WITH VALIDTIME;\n\
     CREATE TABLE a (k INTEGER, d DATE);\n\
     CREATE TABLE empty_t (k INTEGER, v INTEGER);\n\
     INSERT INTO a VALUES (1, DATE '2010-01-10'), (2, DATE '2010-02-01'), \
     (NULL, DATE '2010-01-20'), (3, NULL), (1, DATE '2010-03-05');\n\
     INSERT INTO p (k, y, begin_time, end_time) VALUES (1, 5, DATE \
     '2010-01-01', DATE '2010-02-01'), (1, 7, DATE '2010-01-15', DATE \
     '2010-04-01'), (2, 2, DATE '2010-01-01', DATE '2010-12-31'), (1, 9, \
     DATE '2010-03-01', DATE '2010-03-01'), (NULL, 4, DATE '2010-01-01', \
     DATE '2010-06-01'), (2, 8, DATE '2010-02-01', DATE '2010-02-02'), (3, \
     1, DATE '2010-01-05', DATE '2010-03-10');\n\
     CREATE FUNCTION digits (kk INTEGER, d DATE) RETURNS INTEGER BEGIN \
     DECLARE lim INTEGER DEFAULT 3; DECLARE s INTEGER DEFAULT 0; FOR \
     SELECT y + lim AS z FROM p WHERE p.k = kk AND p.begin_time <= d AND \
     d < p.end_time AND y > lim - 2 ORDER BY y * lim DESC DO SET s = s * \
     10 + z - lim; END FOR; RETURN s; END;\n\
     CREATE FUNCTION window_of (d DATE) RETURNS INTEGER BEGIN DECLARE lim \
     INTEGER DEFAULT 3; DECLARE s INTEGER DEFAULT 0; FOR SELECT y - lim AS \
     z FROM p WHERE p.begin_time <= d AND d < p.end_time AND y <> lim + 1 \
     ORDER BY y + lim DO SET s = s * 10 + z + lim; END FOR; RETURN s; \
     END;\n\
     CREATE FUNCTION by_var (kk INTEGER) RETURNS INTEGER BEGIN DECLARE key \
     INTEGER DEFAULT 0; DECLARE n INTEGER; SET key = kk + 1; SET n = \
     (SELECT COUNT(*) FROM a, p WHERE p.k = key - 1 AND a.k = key - 1 AND \
     p.end_time > a.d); RETURN n; END";
  e

let slot_queries =
  [
    ( "parameters and variables: key, window, check, projection, order",
      "SELECT a.k, digits(a.k, a.d) FROM a",
      true );
    ( "parameter and variables: window bounds, check, projection, order",
      "SELECT a.d, window_of(a.d) FROM a",
      true );
    ("DECLAREd variable as a join's hash key", "SELECT k, by_var(k) FROM a", true);
    ( "stored function in WHERE and in the SELECT list",
      "SELECT a.k, digits(a.k, a.d) + 1 FROM a WHERE digits(a.k, a.d) > 0 \
       ORDER BY a.d",
      true );
    ( "outer columns: hash key, check, projection",
      "SELECT a.k, (SELECT MAX(p.y + a.k) FROM p WHERE p.k = a.k AND \
       p.begin_time <= a.d AND p.y <> a.k) FROM a",
      false );
    ( "outer columns: window bounds, check, projection, order",
      "SELECT a.k, (SELECT p.y * 10 + a.k FROM p WHERE p.begin_time <= a.d \
       AND p.end_time > a.d AND p.y > a.k ORDER BY p.y - a.k DESC FETCH \
       FIRST 1 ROWS ONLY) FROM a",
      false );
    ( "outer column in a correlated EXISTS: check and ORDER BY",
      "SELECT a.k FROM a WHERE EXISTS (SELECT p.y FROM p WHERE p.y > a.k \
       ORDER BY p.y - a.k) ORDER BY a.k",
      false );
  ]

let test_slots_equivalence () =
  List.iter
    (fun (name, sql, no_subquery) ->
      let answer compile =
        let e = slot_engine () in
        let cat = Engine.catalog e in
        cat.Catalog.options.Catalog.observe <- true;
        cat.Catalog.options.Catalog.compile <- compile;
        let tr = Catalog.trace cat in
        Trace.reset tr;
        let rows = rows_of (Engine.query e sql) in
        (rows, Trace.get_count tr "compile.reentries")
      in
      let want, _ = answer false in
      let got, reentries = answer true in
      Alcotest.(check bool) (name ^ ": non-empty") true (want <> []);
      Alcotest.(check (list (list string))) (name ^ ": rows, in order") want got;
      if no_subquery then
        Alcotest.(check int) (name ^ ": no per-row re-entry") 0 reentries)
    slot_queries

(* A slot is evaluated at its first use, as the interpreter evaluates
   the reference: an undeclared name in a residual check raises the
   interpreter's error as soon as a row reaches the check, and never
   over an empty table. *)
let test_slots_lazy () =
  let outcome ~compile sql =
    let e = slot_engine () in
    (Engine.catalog e).Catalog.options.Catalog.compile <- compile;
    match Engine.query e sql with
    | rs -> Printf.sprintf "%d row(s)" (List.length rs.RS.rows)
    | exception ex -> Printexc.to_string ex
  in
  List.iter
    (fun (sql, want_error) ->
      let interp = outcome ~compile:false sql in
      let compiled = outcome ~compile:true sql in
      Alcotest.(check string) (sql ^ ": compiled = interpreted") interp compiled;
      Alcotest.(check bool)
        (sql ^ ": raises " ^ interp)
        want_error
        (Astring.String.is_infix ~affix:"nosuch" interp))
    [
      ("SELECT k FROM a WHERE k > nosuch", true);
      ("SELECT k FROM empty_t WHERE v > nosuch", false);
      ("SELECT nosuch FROM a", true);
      ("SELECT nosuch FROM empty_t", false);
    ]

(* ------------------------------------------------------------------ *)
(* qcheck: compiled ≡ interpreted on random temporal databases         *)
(* ------------------------------------------------------------------ *)

(* Random databases deliberately include the evaluator's edge cases:
   NULL keys and NULL group columns (three-valued comparisons must not
   differ between the two paths) and empty [b, b) periods (overlap
   nothing, but must not derail period plans or constant-period
   slicing). *)
let random_engine seed =
  let st = Random.State.make [| 0xc0de; seed |] in
  let e = Engine.create ~now:(Date.of_ymd ~y:2010 ~m:12 ~d:1) () in
  Taupsm.Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE t (k INTEGER, g INTEGER) WITH VALIDTIME;\n\
     CREATE TABLE lab (g INTEGER, name VARCHAR(10))";
  Engine.exec e
    "INSERT INTO lab VALUES (0, 'zero'), (1, 'one'), (2, 'two'), (3, \
     'three'), (NULL, 'none')"
  |> ignore;
  let n = 30 + Random.State.int st 51 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "INSERT INTO t (k, g, begin_time, end_time) VALUES ";
  for i = 0 to n - 1 do
    let day = Random.State.int st 300 in
    (* one period in five is empty: end_time = begin_time *)
    let len = if Random.State.int st 5 = 0 then 0 else 1 + Random.State.int st 60 in
    let b = Date.add_days (Date.of_ymd ~y:2010 ~m:1 ~d:1) day in
    let lit x lim =
      (* one value in six is NULL *)
      if x = 0 then "NULL" else string_of_int (Random.State.int st lim)
    in
    Buffer.add_string buf
      (Printf.sprintf "%s(%s, %s, DATE '%s', DATE '%s')"
         (if i = 0 then "" else ", ")
         (lit (Random.State.int st 6) 100)
         (lit (Random.State.int st 6) 5)
         (Date.to_string b)
         (Date.to_string (Date.add_days b len)))
  done;
  Engine.exec e (Buffer.contents buf) |> ignore;
  e

let random_db_query =
  "VALIDTIME [DATE '2010-03-01', DATE '2010-06-01') SELECT t.k, lab.name \
   FROM t, lab WHERE t.g = lab.g AND (t.k < 50 OR t.k IS NULL)"

let prop_random_db_equivalence seed =
  let answer ~compile ~jobs =
    let e = random_engine seed in
    let cat = Engine.catalog e in
    cat.Catalog.options.Catalog.compile <- compile;
    rows_of (Stratum.query ~strategy:Stratum.Max ~jobs e random_db_query)
  in
  let interp = answer ~compile:false ~jobs:1 in
  let check label rows =
    if rows <> interp then
      QCheck.Test.fail_reportf
        "seed=%d: %s %d row(s) <> interpreted %d row(s)" seed label
        (List.length rows) (List.length interp)
  in
  check "compiled jobs=1" (answer ~compile:true ~jobs:1);
  check "compiled jobs=4" (answer ~compile:true ~jobs:4);
  true

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:20
        ~name:"random db (NULLs, empty periods): compiled = interpreted"
        QCheck.(make Gen.(int_range 0 9999) ~print:string_of_int)
        prop_random_db_equivalence;
    ]

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "compile",
      [
        Alcotest.test_case "16 queries: {compiled,interp} x jobs {1,4}" `Slow
          test_equivalence;
        Alcotest.test_case "slots and stored calls: compiled = interpreted"
          `Quick test_slots_equivalence;
        Alcotest.test_case "slots are evaluated at first use" `Quick
          test_slots_lazy;
      ] );
    ("compile-equivalence", qcheck_tests);
  ]
