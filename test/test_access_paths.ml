(* Access-path selection by the shared planner (Sqleval.Plan).

   - Hash-key ranking: an equality whose probe reads an earlier FROM
     source is the hash key even when a constant equality on the same
     source comes first; the constant one stays a residual check.  The
     q8 shape (a join restricted by a routine parameter) must probe one
     author's items by item id, not every item against all of the
     author's rows.
   - Hash-probed table functions: a memoized table function linked to
     an earlier source by an equality is indexed once per argument
     vector and probed by key; native functions and runs with
     memoization off keep the scan.

   Every answer is compared, as a multiset, with the nested-loop answer
   ([hash_joins] and [temporal_index] off), compiled and interpreted. *)

module Engine = Sqleval.Engine
module Catalog = Sqleval.Catalog
module RS = Sqleval.Result_set
module Value = Sqldb.Value

let bag rs =
  List.sort compare
    (List.map (fun r -> List.map Value.to_string (Array.to_list r)) rs.RS.rows)

(* Evaluate [sql] under the given switches with a fresh trace: the rows
   as a sorted bag, the join-order events, and a counter reader. *)
let run ?(compile = true) ?(hash = true) ?(index = true) ?(memo = true) e sql =
  let cat = Engine.catalog e in
  let o = cat.Catalog.options in
  o.Catalog.compile <- compile;
  o.Catalog.hash_joins <- hash;
  o.Catalog.temporal_index <- index;
  o.Catalog.memoize_table_functions <- memo;
  o.Catalog.observe <- true;
  let tr = Catalog.trace cat in
  Trace.reset tr;
  let rows = bag (Engine.query e sql) in
  let joins =
    List.filter_map
      (fun ev ->
        if ev.Trace.ev_label = "join" then Some ev.Trace.ev_detail else None)
      (Trace.events tr)
  in
  (rows, joins, Trace.get_count tr)

let nested_loop ?memo e sql =
  let rows, _, _ = run ~compile:false ~hash:false ~index:false ?memo e sql in
  rows

let check_event name joins want =
  if not (List.mem want joins) then
    Alcotest.failf "%s: no join event %S among [%s]" name want
      (String.concat "; " joins)

let bag_t = Alcotest.(list (list string))

(* ------------------------------------------------------------------ *)
(* Hash-key ranking                                                    *)
(* ------------------------------------------------------------------ *)

let n_items = 60

(* Every item has one or two of three authors, so one author owns about
   thirty item_author rows: hashing item_author on author_id would hand
   each item all thirty. *)
let q8_engine () =
  let e = Engine.create () in
  Engine.exec_script e
    "CREATE TABLE item (id INTEGER, pages INTEGER);\n\
     CREATE TABLE item_author (item_id INTEGER, author_id INTEGER)";
  let values f =
    String.concat ", " (List.concat (List.init n_items (fun i -> f (i + 1))))
  in
  ignore
    (Engine.exec e
       ("INSERT INTO item VALUES "
       ^ values (fun i -> [ Printf.sprintf "(%d, %d)" i (10 * i) ])));
  ignore
    (Engine.exec e
       ("INSERT INTO item_author VALUES "
       ^ values (fun i ->
             let row a = Printf.sprintf "(%d, %d)" i a in
             row (i mod 3)
             :: (if i mod 2 = 0 then [ row ((i + 1) mod 3) ] else []))));
  e

let q8_shapes =
  [
    ( "JOIN ON, constant in WHERE",
      "SELECT i.id, i.pages FROM item i JOIN item_author ia ON i.id = \
       ia.item_id WHERE ia.author_id = 1" );
    ( "JOIN ON, constant first",
      "SELECT i.id, i.pages FROM item i JOIN item_author ia ON ia.author_id = \
       1 AND i.id = ia.item_id" );
    ( "WHERE, constant first",
      "SELECT i.id, i.pages FROM item i, item_author ia WHERE ia.author_id = \
       1 AND i.id = ia.item_id" );
    ( "WHERE, constant last",
      "SELECT i.id, i.pages FROM item i, item_author ia WHERE i.id = \
       ia.item_id AND ia.author_id = 1" );
  ]

let test_join_key_outranks_constant () =
  let e = q8_engine () in
  List.iter
    (fun (shape, sql) ->
      let want = nested_loop e sql in
      Alcotest.(check bool) (shape ^ ": non-empty") true (want <> []);
      List.iter
        (fun compile ->
          let name =
            Printf.sprintf "%s (%s)" shape
              (if compile then "compiled" else "interpreted")
          in
          let rows, joins, count = run ~compile e sql in
          Alcotest.check bag_t (name ^ ": rows = nested loop") want rows;
          check_event name joins "order=i:full,ia:hash(item_id)";
          (* one scan of item, then at most two item_author rows per
             item; the constant key would probe about thirty *)
          let probed = count "rows.probed" in
          if probed > 3 * n_items then
            Alcotest.failf "%s: %d rows probed (bound %d)" name probed
              (3 * n_items))
        [ true; false ])
    q8_shapes

(* The q8 routine: the constant is a parameter of the per-period
   routine, so it is bound before the join just like a literal. *)
let test_parameter_probe () =
  let e = q8_engine () in
  Engine.exec_script e
    "CREATE FUNCTION pages_of (aid INTEGER) RETURNS INTEGER BEGIN DECLARE \
     total INTEGER DEFAULT 0; FOR SELECT pages FROM item i JOIN item_author \
     ia ON i.id = ia.item_id WHERE ia.author_id = aid DO SET total = total + \
     pages; END FOR; RETURN total; END";
  let sql = "SELECT pages_of(1), pages_of(2) FROM item WHERE id = 1" in
  let want = nested_loop e sql in
  List.iter
    (fun compile ->
      let rows, joins, _ = run ~compile e sql in
      Alcotest.check bag_t "routine total = nested loop" want rows;
      check_event "routine" joins "order=i:full,ia:hash(item_id)")
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Hash-probed table functions                                         *)
(* ------------------------------------------------------------------ *)

(* Author 1 lists item 5 twice and a NULL item; author 3 has no items;
   item has a NULL id.  items_of is a memoized SQL table function. *)
let tf_engine () =
  let e = Engine.create () in
  Engine.exec_script e
    "CREATE TABLE author (id INTEGER);\n\
     CREATE TABLE item (id INTEGER, title VARCHAR(10));\n\
     CREATE TABLE item_author (item_id INTEGER, author_id INTEGER);\n\
     INSERT INTO author VALUES (1), (2), (3), (NULL);\n\
     INSERT INTO item VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd'), (5, \
     'e'), (NULL, 'z');\n\
     INSERT INTO item_author VALUES (1, 1), (2, 1), (5, 1), (5, 1), (NULL, \
     1), (2, 2), (3, 2), (4, 2), (5, 2);\n\
     CREATE FUNCTION items_of (aid INTEGER) RETURNS TABLE (iid INTEGER) \
     BEGIN RETURN TABLE (SELECT item_id FROM item_author WHERE author_id = \
     aid); END";
  e

let check_probed ?memo e name sql ~event =
  let want = nested_loop ?memo e sql in
  List.iter
    (fun compile ->
      let name =
        Printf.sprintf "%s (%s)" name
          (if compile then "compiled" else "interpreted")
      in
      let rows, joins, count = run ~compile ?memo e sql in
      Alcotest.check bag_t (name ^ ": rows = nested loop") want rows;
      check_event name joins event;
      let hashed = String.ends_with ~suffix:"t:hash(iid)" event in
      if hashed && count "scan.hash" = 0 then
        Alcotest.failf "%s: no hash scan counted" name;
      Alcotest.(check bool)
        (name ^ ": counted as a lateral scan")
        (not hashed)
        (count "scan.lateral" > 0))
    [ true; false ];
  want

let test_tf_constant_args () =
  let e = tf_engine () in
  let rows =
    check_probed e "constant arguments"
      "SELECT i.id, i.title FROM item i, TABLE(items_of(1)) t WHERE i.id = \
       t.iid"
      ~event:"order=i:full,t:hash(iid)"
  in
  (* item 5 twice (duplicate key), the NULL key matches nothing *)
  Alcotest.check bag_t "duplicates kept, NULL dropped"
    [ [ "1"; "a" ]; [ "2"; "b" ]; [ "5"; "e" ]; [ "5"; "e" ] ]
    rows

let test_tf_args_from_earlier_source () =
  let e = tf_engine () in
  let rows =
    check_probed e "arguments from an earlier source"
      "SELECT a.id, i.id FROM author a, item i, TABLE(items_of(a.id)) t \
       WHERE i.id = t.iid"
      ~event:"order=a:full,i:full,t:hash(iid)"
  in
  Alcotest.(check int) "one row per (author, listed item)" 8 (List.length rows)

let test_tf_empty_result () =
  let e = tf_engine () in
  let rows =
    check_probed e "empty function result"
      "SELECT i.id FROM item i, TABLE(items_of(3)) t WHERE t.iid = i.id"
      ~event:"order=i:full,t:hash(iid)"
  in
  Alcotest.check bag_t "no rows" [] rows

let test_tf_native_scans () =
  let e = tf_engine () in
  Catalog.add_native_table_fun (Engine.catalog e) "native_items"
    {
      Catalog.ntf_cols = [ "iid" ];
      ntf_fn =
        (fun _ _ ->
          {
            RS.cols = [ "iid" ];
            rows = List.map (fun v -> [| v |]) Value.[ Int 2; Int 4; Null ];
          });
    };
  ignore
    (check_probed e "native table function"
       "SELECT i.id FROM item i, TABLE(native_items()) t WHERE i.id = t.iid"
       ~event:"order=i:full,t:lateral")

let test_tf_unmemoized_scans () =
  let e = tf_engine () in
  ignore
    (check_probed ~memo:false e "memoization off"
       "SELECT a.id, i.id FROM author a, item i, TABLE(items_of(a.id)) t \
        WHERE i.id = t.iid"
       ~event:"order=a:full,i:full,t:lateral")

(* The table-function memo must not serve rows computed before a write
   made later in the same statement: g reads tf's rows, inserts into the
   table tf reads and reads tf again.  The writes a memoized function
   makes to its own scratch table (PERST's result tables) do not
   invalidate it: h's two calls of scratch(1) run it once. *)
let test_tf_memo_after_write () =
  List.iter
    (fun compile ->
      let e = Engine.create () in
      Engine.exec_script e
        "CREATE TABLE t (x INTEGER);\n\
         INSERT INTO t VALUES (1);\n\
         CREATE FUNCTION tf () RETURNS TABLE (x INTEGER) BEGIN RETURN TABLE \
         (SELECT x FROM t); END;\n\
         CREATE FUNCTION g () RETURNS INTEGER BEGIN DECLARE a INTEGER; \
         DECLARE b INTEGER; SET a = (SELECT COUNT(*) FROM TABLE(tf()) z); \
         INSERT INTO t VALUES (2); SET b = (SELECT COUNT(*) FROM TABLE(tf()) \
         z); RETURN b; END;\n\
         CREATE FUNCTION scratch (k INTEGER) RETURNS TABLE (x INTEGER) BEGIN \
         CREATE TEMPORARY TABLE scratch_rows (x INTEGER); INSERT INTO \
         scratch_rows SELECT x + k FROM t; RETURN TABLE (SELECT * FROM \
         scratch_rows); END;\n\
         CREATE FUNCTION h () RETURNS INTEGER BEGIN RETURN (SELECT COUNT(*) \
         FROM TABLE(scratch(1)) z) + (SELECT COUNT(*) FROM \
         TABLE(scratch(1)) z); END";
      let name = if compile then "compiled" else "interpreted" in
      let rows, _, count = run ~compile e "SELECT g() FROM t" in
      Alcotest.check bag_t (name ^ ": second call sees the insert") [ [ "2" ] ]
        rows;
      Alcotest.(check int) (name ^ ": tf ran twice") 3 (count "routine.calls");
      let rows, _, count = run ~compile e "SELECT h() FROM t WHERE x = 1" in
      Alcotest.check bag_t (name ^ ": scratch rows") [ [ "4" ] ] rows;
      Alcotest.(check int)
        (name ^ ": scratch writes keep the memo")
        2 (count "routine.calls"))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* First-level hash keys and DML predicates                            *)
(* ------------------------------------------------------------------ *)

(* A first-level hash key is probed once per run.  A compiled SELECT
   that is the statement itself scans on its first run at a table
   version; one inside a routine builds the index and probes it.  Each
   key's rows come back in scan order either way, which the string
   built in cursor order pins. *)
let test_first_level_hash_deferred () =
  let e = Engine.create () in
  Engine.exec_script e
    "CREATE TABLE dup (k INTEGER, v VARCHAR(4));\n\
     INSERT INTO dup VALUES (1, 'a'), (2, 'x'), (1, 'b'), (NULL, 'n'), (1, \
     'c'), (2, 'y');\n\
     CREATE FUNCTION vs_of (kk INTEGER) RETURNS VARCHAR(20) BEGIN DECLARE s \
     VARCHAR(20) DEFAULT ''; FOR SELECT v FROM dup WHERE k = kk DO SET s = \
     s || v; END FOR; RETURN s; END";
  let sql =
    "SELECT vs_of(1), vs_of(1), vs_of(2), vs_of(1) FROM dup WHERE v = 'a'"
  in
  let want = nested_loop e sql in
  Alcotest.check bag_t "nested loop, scan order"
    [ [ "abc"; "abc"; "xy"; "abc" ] ]
    want;
  List.iter
    (fun compile ->
      let rows, joins, count = run ~compile e sql in
      let mode = if compile then "compiled" else "interpreted" in
      Alcotest.check bag_t (mode ^ ": same rows, same order") want rows;
      check_event mode joins "order=dup:hash(k)";
      (* the statement's own SELECT scans; the routine's four runs
         probe one index *)
      if compile then
        Alcotest.(check (pair int int))
          "compiled: one top-level scan of dup, then probes" (1, 4)
          (count "scan.full:dup", count "scan.hash"))
    [ true; false ]

(* UPDATE and DELETE check WHERE conjunct by conjunct, in written
   order: a row the first conjunct rejects never evaluates the
   division. *)
let test_dml_where_conjuncts () =
  let e = Engine.create () in
  Engine.exec_script e
    "CREATE TABLE t (k INTEGER, v INTEGER);\n\
     INSERT INTO t VALUES (0, 1), (1, 2), (2, 3), (5, 4)";
  let where = "WHERE k > 0 AND 10 / k > 3" in
  let affected = function
    | Sqleval.Eval.Affected n -> n
    | _ -> Alcotest.fail "expected a row count"
  in
  Alcotest.(check int) "UPDATE skips the k = 0 division" 2
    (affected (Engine.exec e ("UPDATE t SET v = 0 " ^ where)));
  Alcotest.(check int) "DELETE skips the k = 0 division" 2
    (affected (Engine.exec e ("DELETE FROM t " ^ where)));
  Alcotest.check bag_t "survivors" [ [ "0"; "1" ]; [ "5"; "4" ] ]
    (nested_loop e "SELECT k, v FROM t")

(* ------------------------------------------------------------------ *)
(* qcheck: random two- and three-source joins, every access path      *)
(* ------------------------------------------------------------------ *)

(* Three small tables over a tiny key domain with NULLs, a table
   function over the third, and a valid-time table [p] whose periods
   (some empty) start within the first three weeks of 2010.  The query
   is drawn from shapes that mix join equalities, constant equalities
   and function arguments read from earlier sources, in either conjunct
   order; period windows bounded by constants or by an earlier source's
   period; and LEFT JOINs whose right side often has no match, so
   null-extension runs. *)
let random_case seed =
  let st = Random.State.make [| 0xacce55; seed |] in
  let e = Engine.create () in
  Engine.exec_script e
    "CREATE TABLE a (k INTEGER, v INTEGER);\n\
     CREATE TABLE b (k INTEGER, w INTEGER);\n\
     CREATE TABLE c (k INTEGER, x INTEGER);\n\
     CREATE TABLE p (k INTEGER, y INTEGER) WITH VALIDTIME;\n\
     CREATE FUNCTION fc (p INTEGER) RETURNS TABLE (k INTEGER, x INTEGER) \
     BEGIN RETURN TABLE (SELECT k, x FROM c WHERE x >= p); END";
  let v () =
    if Random.State.int st 6 = 0 then "NULL"
    else string_of_int (Random.State.int st 4)
  in
  let date n =
    Printf.sprintf "DATE '%s'"
      (Sqldb.Date.to_string
         (Sqldb.Date.add_days (Sqldb.Date.of_ymd ~y:2010 ~m:1 ~d:1) n))
  in
  let insert t cols row =
    let n = Random.State.int st 9 in
    if n > 0 then
      ignore
        (Engine.exec e
           (Printf.sprintf "INSERT INTO %s%s VALUES %s" t cols
              (String.concat ", " (List.init n (fun _ -> row ())))))
  in
  List.iter
    (fun t -> insert t "" (fun () -> Printf.sprintf "(%s, %s)" (v ()) (v ())))
    [ "a"; "b"; "c" ];
  insert "p" " (k, y, begin_time, end_time)" (fun () ->
      let b = Random.State.int st 20 in
      Printf.sprintf "(%s, %s, %s, %s)" (v ()) (v ()) (date b)
        (date (b + Random.State.int st 8)));
  let k = Random.State.int st 4 in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let conj l =
    String.concat " AND " (if Random.State.bool st then l else List.rev l)
  in
  let lo = Random.State.int st 20 in
  let hi = lo + Random.State.int st 10 in
  let lt = pick [ "<"; "<=" ] and gt = pick [ ">"; ">=" ] in
  (* [true] marks a LEFT JOIN without WHERE: its answer keeps every row
     of [a] in its first two columns. *)
  let keeps_left, sql =
    pick
      (List.map
         (fun sql -> (false, sql))
         [
           Printf.sprintf "SELECT a.v, b.w FROM a, b WHERE %s"
             (conj [ "a.k = b.k"; Printf.sprintf "b.w = %d" k ]);
           Printf.sprintf "SELECT a.v, b.w FROM a JOIN b ON %s"
             (conj [ "b.k = a.k"; Printf.sprintf "b.k = %d" k ]);
           Printf.sprintf
             "SELECT a.v, b.w, t.x FROM a, b, TABLE(fc(a.v)) t WHERE %s"
             (conj [ "a.k = b.k"; "t.k = b.k" ]);
           Printf.sprintf
             "SELECT a.v, t.x, b.w FROM a, TABLE(fc(%d)) t, b WHERE %s" k
             (conj [ "t.k = a.k"; "b.w = t.x"; Printf.sprintf "t.x = %d" k ]);
           Printf.sprintf
             "SELECT a.v, t.k FROM a, TABLE(fc(%d)) t WHERE %s" k
             (conj [ "a.v = t.x"; Printf.sprintf "t.k = %d" k ]);
           Printf.sprintf "SELECT p.k, p.y, a.v FROM p, a WHERE %s"
             (conj
                [
                  Printf.sprintf "p.begin_time %s %s" lt (date hi);
                  Printf.sprintf "p.end_time %s %s" gt (date lo);
                  "a.k = p.k";
                ]);
           Printf.sprintf "SELECT a.v, p.y FROM a, p WHERE %s"
             (conj
                [
                  Printf.sprintf "%s %s p.begin_time" (date hi)
                    (if lt = "<" then ">" else ">=");
                  Printf.sprintf "p.end_time %s %s" gt (date lo);
                  "p.y >= a.v";
                ]);
           Printf.sprintf "SELECT x.k, y.k, y.y FROM p x, p y WHERE %s"
             (conj
                [
                  Printf.sprintf "y.begin_time %s x.end_time" lt;
                  Printf.sprintf "y.end_time %s x.begin_time" gt;
                  Printf.sprintf "x.y = %d" k;
                ]);
           Printf.sprintf
             "SELECT a.k, b.w FROM a LEFT JOIN b ON a.k = b.k WHERE b.w IS \
              NULL OR b.w > %d"
             k;
         ]
      @ List.map
          (fun sql -> (true, sql))
          [
            Printf.sprintf "SELECT a.k, a.v, b.w FROM a LEFT JOIN b ON %s"
              (conj [ "a.k = b.k"; Printf.sprintf "b.w = %d" k ]);
            Printf.sprintf "SELECT a.k, a.v, p.y FROM a LEFT JOIN p ON %s"
              (conj
                 [
                   "p.k = a.k";
                   Printf.sprintf "p.begin_time %s %s" lt (date hi);
                   Printf.sprintf "p.end_time %s %s" gt (date lo);
                 ]);
          ])
  in
  (e, sql, keeps_left)

let prop_random_joins seed =
  let e, sql, keeps_left = random_case seed in
  let want = nested_loop e sql in
  (* Every row of [a] is matched or null-extended.  Checked on the
     nested-loop answer, which runs the same null-extension code as
     every other path. *)
  if
    keeps_left
    && List.sort_uniq compare
         (List.map (function k :: v :: _ -> [ k; v ] | r -> r) want)
       <> List.sort_uniq compare (nested_loop e "SELECT k, v FROM a")
  then QCheck.Test.fail_reportf "seed=%d %s: a row of a was dropped" seed sql;
  List.iter
    (fun compile ->
      let rows, _, _ = run ~compile e sql in
      if rows <> want then
        QCheck.Test.fail_reportf "seed=%d %s: %s: %d row(s) <> nested loop %d"
          seed
          (if compile then "compiled" else "interpreted")
          sql (List.length rows) (List.length want))
    [ true; false ];
  true

let suite =
  [
    ( "access-paths",
      [
        Alcotest.test_case "join key outranks a constant key" `Quick
          test_join_key_outranks_constant;
        Alcotest.test_case "routine parameter stays residual" `Quick
          test_parameter_probe;
        Alcotest.test_case "table function, constant arguments" `Quick
          test_tf_constant_args;
        Alcotest.test_case "table function, arguments from earlier source"
          `Quick test_tf_args_from_earlier_source;
        Alcotest.test_case "table function, empty result" `Quick
          test_tf_empty_result;
        Alcotest.test_case "native table function scans" `Quick
          test_tf_native_scans;
        Alcotest.test_case "unmemoized table function scans" `Quick
          test_tf_unmemoized_scans;
        Alcotest.test_case "table-function memo sees a later write" `Quick
          test_tf_memo_after_write;
        Alcotest.test_case "first-level hash index deferred, scan order"
          `Quick test_first_level_hash_deferred;
        Alcotest.test_case "DML WHERE conjunct by conjunct" `Quick
          test_dml_where_conjuncts;
      ] );
    ( "access-paths-prop",
      List.map QCheck_alcotest.to_alcotest
        [
          QCheck.Test.make ~count:300
            ~name:"random 2/3-source joins: every access path = nested loop"
            QCheck.(make Gen.(int_range 0 99999) ~print:string_of_int)
            prop_random_joins;
        ] );
  ]
