(* Plan compilation: turn a SELECT the interpreter would analyse afresh
   on every evaluation into an OCaml closure network built once per
   (statement, plan token) and reused for the statement's lifetime.

   Join order and access paths (hash / interval-index / full scan) come
   from the shared planner, Sqleval.Plan, the same analysis the
   interpreter runs; this module lowers that plan into closures with the
   interpreter's three-valued logic, trace counters, guard charges and
   evaluation order for side-effecting sub-expressions, so its results
   are bit-identical.  What it removes is the per-evaluation overhead:
   planning, alias/column name resolution (pre-resolved to array
   offsets), per-call hash-index builds, and transaction-time
   re-filtering of unchanged tables.

   Coverage is partial by design: any SELECT whose FROM contains
   something other than base-table references (views, derived tables,
   table functions) falls back to the interpreter, as does one with a
   nested join right of a LEFT JOIN; the (select, token) pair is then
   cached as unsupported.  Expressions always compile — a construct
   without a specialised closure (aggregates, subquery predicates,
   stored-function calls) gets a generic closure that re-enters the
   interpreter for that node only, keeping recursion depth guards, fault
   injection and routine memoisation intact. *)

open Sqlast.Ast
module Value = Sqldb.Value
module Date = Sqldb.Date
module Schema = Sqldb.Schema
module Table = Sqldb.Table
module Database = Sqldb.Database
module Eval = Sqleval.Eval
module Catalog = Sqleval.Catalog
module Builtins = Sqleval.Builtins
module Result_set = Sqleval.Result_set
module Plan = Sqleval.Plan

let lc = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Compiled forms                                                      *)
(* ------------------------------------------------------------------ *)

(* The runtime context a compiled closure runs against: the live
   evaluation environment (for subquery fallbacks, PSM variables and
   guards) plus this plan's own bindings, freshly allocated per run so
   re-entrant evaluations (a routine called from a projection re-running
   the same plan) cannot clobber each other's rows. *)
type rt = { env : Eval.env; binds : Eval.binding array }

type cexpr = rt -> Value.t

(* An interval-index window bound: begin_time < u / end_time > l. *)
type cbound = { bd_e : cexpr; bd_incl : bool }

type cperiod = {
  pd_bi : int;
  pd_ei : int;
  pd_ubs : cbound list;
  pd_lbs : cbound list;
  pd_sat : int;  (* conjuncts the window implies when the index is exact *)
  pd_checks_exact : cexpr array;  (* level checks minus the implied ones *)
}

type chash = {
  h_ci : int;  (* hashed column offset in the source's rows *)
  h_probe : cexpr;
  h_checks : cexpr array;  (* level checks minus the hash equality *)
}

type csrc = {
  s_name : string;  (* table lookup name; resolved per run *)
  s_alias : string;  (* lowercase *)
  s_cols : string array;  (* lowercase; fixed by the schema token *)
  s_transaction : bool;
  s_tt_bi : int;
  s_tt_ei : int;
  s_left_on : cexpr option;
  s_hash : chash option;  (* inner joins under options.hash_joins only *)
  s_period : cperiod option;
  s_checks : cexpr array;  (* this level's conjuncts, cheap-first order *)
}

type cplan = {
  p_id : int;
  p_select : select;  (* for the shared distinct/sort/group tail *)
  p_srcs : csrc array;
  p_n : int;
  p_grouped : bool;
  p_const_checks : cexpr array;  (* level-0 conjuncts when FROM is empty *)
  p_proj : rt -> Value.t list;
  p_keys : cexpr list;
  p_join_event : string;
  p_tt_index : bool;  (* options.temporal_index, baked into the token *)
}

(* ------------------------------------------------------------------ *)
(* Caches                                                              *)
(* ------------------------------------------------------------------ *)

(* The per-catalog compiled-plan store, hung off the catalog's extension
   slot.  Shared by read views (worker snapshots), hence the mutex; held
   only around table lookups, never during compilation or execution.
   [None] entries cache "unsupported" verdicts. *)
type store = {
  mu : Mutex.t;
  plans : (select, (int * int * int) * cplan option) Hashtbl.t;
}

type Catalog.ext += Plans of store

let store_mu = Mutex.create ()

let plans_of (cat : Catalog.t) : store =
  match cat.Catalog.compile_ext with
  | Some (Plans st) -> st
  | _ ->
      Mutex.lock store_mu;
      let st =
        match cat.Catalog.compile_ext with
        | Some (Plans st) -> st
        | _ ->
            let st = { mu = Mutex.create (); plans = Hashtbl.create 32 } in
            cat.Catalog.compile_ext <- Some (Plans st);
            st
      in
      Mutex.unlock store_mu;
      st

(* Per-source row/hash caches, valid for one physical table at one
   mutation version.  Physical identity distinguishes a re-created
   temp table (same name, same schema, hence same plan token) from the
   table the cache was built over. *)
type entry = {
  e_table : Table.t;
  e_version : int;
  mutable e_rows : Value.t array list option;  (* tt-filtered scan *)
  mutable e_hash : (Value.t, Value.t array list) Hashtbl.t option;
  mutable e_scanned : bool;  (* a top-level run scanned this version *)
}

(* Per-statement state, hung off the environment's extension slot: a
   mutex-free local mirror of the plan store plus the row/hash caches.
   The slot is a ref cell shared with routine child environments, so
   the many SELECT evaluations inside one top-level statement — the
   stratum's generated PSM loops — all hit the same warm caches. *)
type estate = {
  es_plans : (select, (int * int * int) * cplan option) Hashtbl.t;
  es_caches : (int, entry option array) Hashtbl.t;  (* plan id -> sources *)
}

type Catalog.ext += Estate of estate

let estate_of (env : Eval.env) : estate =
  match !(env.Eval.ext_state) with
  | Some (Estate es) -> es
  | _ ->
      let es =
        { es_plans = Hashtbl.create 16; es_caches = Hashtbl.create 16 }
      in
      env.Eval.ext_state := Some (Estate es);
      es

let next_id = Atomic.make 0

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Specialised comparison: the interpreter's [v_compare] goes through
   [Value.compare_sql]'s full type dispatch; the common INT/INT and
   DATE/DATE cases (period arithmetic is all int-backed dates) short-
   circuit here with the identical result. *)
let cmp op =
  let t =
    match op with
    | Eq -> fun c -> c = 0
    | Neq -> fun c -> c <> 0
    | Lt -> fun c -> c < 0
    | Le -> fun c -> c <= 0
    | Gt -> fun c -> c > 0
    | Ge -> fun c -> c >= 0
    | _ -> assert false
  in
  fun a b ->
    match (a, b) with
    | Value.Null, _ | _, Value.Null -> Value.Null
    | Value.Int x, Value.Int y -> Value.Bool (t (Int.compare x y))
    | Value.Date x, Value.Date y -> Value.Bool (t (Date.compare x y))
    | _ -> Eval.v_compare op a b

let arith op a b =
  match (op, a, b) with
  | Add, Value.Int x, Value.Int y -> Value.Int (x + y)
  | Sub, Value.Int x, Value.Int y -> Value.Int (x - y)
  | Mul, Value.Int x, Value.Int y -> Value.Int (x * y)
  | _ -> Eval.v_arith op a b

let compile_select_exn (cat : Catalog.t) (s : select) : cplan =
  (* Only base-table references compile: views, derived tables and table
     functions need the interpreter's materialisation machinery. *)
  let plan =
    Plan.plan cat.Catalog.options s (fun tr ->
        match tr with
        | Tref (name, alias) -> (
            match Database.find_table cat.Catalog.db name with
            | Some t ->
                let schema = Table.schema t in
                ( Option.value alias ~default:name,
                  Array.of_list
                    (List.map
                       (fun c -> lc c.Schema.col_name)
                       schema.Schema.columns),
                  Plan.Table schema,
                  (name, schema) )
            | None -> raise (Plan.Unsupported "view"))
        | _ -> raise (Plan.Unsupported "not a base table"))
  in
  let levels = plan.Plan.levels in
  let n = Array.length levels in
  let binds_static =
    Array.map (fun (l : _ Plan.level) -> (l.Plan.alias, l.Plan.cols)) levels
  in
  let find_alias lq =
    let rec go i =
      if i >= n then None
      else if fst binds_static.(i) = lq then Some i
      else go (i + 1)
    in
    go 0
  in
  let find_col cols lname =
    let m = Array.length cols in
    let rec go j =
      if j >= m then None else if cols.(j) = lname then Some j else go (j + 1)
    in
    go 0
  in
  (* --- expression compilation ------------------------------------- *)
  (* The generic fallback re-enters the interpreter for one node; since
     the plan's bindings are pushed as the innermost frame at run time,
     name resolution there behaves exactly as in interpreted mode. *)
  let generic e = fun rt -> Eval.eval_expr rt.env e in
  let rec comp (e : expr) : cexpr =
    match e with
    | Lit v -> fun _ -> v
    | Col (q, name) -> (
        let lname = lc name in
        match q with
        | Some qq -> (
            match find_alias (lc qq) with
            | Some bi -> (
                match find_col (snd binds_static.(bi)) lname with
                | Some ci -> fun rt -> rt.binds.(bi).Eval.b_row.(ci)
                | None -> fun _ -> Eval.sql_error "no column %s in %s" name qq)
            | None -> generic e)
        | None -> (
            let hits = ref [] in
            Array.iteri
              (fun i (_, cols) ->
                match find_col cols lname with
                | Some ci -> hits := (i, ci) :: !hits
                | None -> ())
              binds_static;
            match !hits with
            | [ (bi, ci) ] -> fun rt -> rt.binds.(bi).Eval.b_row.(ci)
            | [] -> generic e
            | _ -> fun _ -> Eval.sql_error "ambiguous column reference %s" name))
    | Binop (And, a, b) ->
        let ca = comp a and cb = comp b in
        fun rt -> Eval.v_and (ca rt) (cb rt)
    | Binop (Or, a, b) ->
        let ca = comp a and cb = comp b in
        fun rt -> Eval.v_or (ca rt) (cb rt)
    | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
        let ca = comp a and cb = comp b in
        let c = cmp op in
        fun rt -> c (ca rt) (cb rt)
    | Binop (Concat, a, b) ->
        let ca = comp a and cb = comp b in
        fun rt -> Eval.v_concat (ca rt) (cb rt)
    | Binop (op, a, b) ->
        let ca = comp a and cb = comp b in
        fun rt -> arith op (ca rt) (cb rt)
    | Unop (Not, a) ->
        let ca = comp a in
        fun rt -> Eval.v_not (ca rt)
    | Unop (Neg, a) -> (
        let ca = comp a in
        fun rt ->
          match ca rt with
          | Value.Null -> Value.Null
          | Value.Int i -> Value.Int (-i)
          | Value.Float f -> Value.Float (-.f)
          | v -> Eval.sql_error "cannot negate %s" (Value.to_string v))
    | Fun_call (name, []) when lc name = "current_date" ->
        fun rt -> Value.Date rt.env.Eval.now
    | Fun_call (name, args) when Builtins.is_builtin name ->
        let cargs = List.map comp args in
        fun rt ->
          let argv = List.map (fun c -> c rt) cargs in
          Builtins.call ~now:rt.env.Eval.now name argv
    | Cast (e1, ty) ->
        let c = comp e1 in
        fun rt -> Value.cast ~ty (c rt)
    | Case c -> (
        let cop = Option.map comp c.case_operand in
        let cbr = List.map (fun (w, t) -> (comp w, comp t)) c.case_branches in
        let cel = Option.map comp c.case_else in
        match cop with
        | Some cv ->
            fun rt ->
              let v = cv rt in
              let rec go = function
                | [] -> (
                    match cel with Some ce -> ce rt | None -> Value.Null)
                | (cw, ct) :: rest ->
                    if Eval.truthy (Eval.v_compare Eq v (cw rt)) then ct rt
                    else go rest
              in
              go cbr
        | None ->
            fun rt ->
              let rec go = function
                | [] -> (
                    match cel with Some ce -> ce rt | None -> Value.Null)
                | (cw, ct) :: rest ->
                    if Eval.truthy (cw rt) then ct rt else go rest
              in
              go cbr)
    | In_pred (e1, In_list es, neg) ->
        let ce = comp e1 in
        let ces = List.map comp es in
        fun rt ->
          let v = ce rt in
          let members = List.map (fun c -> c rt) ces in
          let result =
            if Value.is_null v then Value.Null
            else
              let any_null = List.exists Value.is_null members in
              if
                List.exists
                  (fun m -> (not (Value.is_null m)) && Value.equal m v)
                  members
              then Value.Bool true
              else if any_null then Value.Null
              else Value.Bool false
          in
          if neg then Eval.v_not result else result
    | Between (e1, lo, hi, neg) ->
        let ce = comp e1 in
        let clo = comp lo and chi = comp hi in
        fun rt ->
          let v = ce rt in
          let l = clo rt and h = chi rt in
          let r = Eval.v_and (Eval.v_compare Le l v) (Eval.v_compare Le v h) in
          if neg then Eval.v_not r else r
    | Is_null (e1, neg) ->
        let ce = comp e1 in
        fun rt ->
          let isnull = Value.is_null (ce rt) in
          Value.Bool (if neg then not isnull else isnull)
    | Like (e1, pat, neg) -> (
        let ce = comp e1 and cp = comp pat in
        fun rt ->
          let v = ce rt and pv = cp rt in
          match (v, pv) with
          | Value.Null, _ | _, Value.Null -> Value.Null
          | _ ->
              let m =
                Builtins.like_match
                  ~pattern:(Value.to_str_exn pv)
                  (Value.to_str_exn v)
              in
              Value.Bool (if neg then not m else m))
    | Exists _ | Scalar_subquery _ | Agg _ | Fun_call _
    | In_pred (_, In_query _, _) ->
        generic e
  in
  let comp_list es = Array.of_list (List.map comp es) in
  let srcs =
    Array.map
      (fun (l : (string * Schema.t) Plan.level) ->
        let name, schema = l.Plan.data in
        let hash =
          Option.map
            (fun (h : Plan.hash) ->
              {
                h_ci = h.Plan.h_ci;
                h_probe = comp h.Plan.h_probe;
                h_checks = comp_list h.Plan.h_checks;
              })
            l.Plan.hash
        in
        let period =
          Option.map
            (fun (pd : Plan.period) ->
              let cb (b : Plan.bound) =
                { bd_e = comp b.Plan.bound; bd_incl = b.Plan.incl }
              in
              {
                pd_bi = pd.Plan.pd_bi;
                pd_ei = pd.Plan.pd_ei;
                pd_ubs = List.map cb pd.Plan.pd_ubs;
                pd_lbs = List.map cb pd.Plan.pd_lbs;
                pd_sat = pd.Plan.pd_nsat;
                pd_checks_exact = comp_list pd.Plan.pd_checks_exact;
              })
            l.Plan.period
        in
        {
          s_name = name;
          s_alias = l.Plan.alias;
          s_cols = l.Plan.cols;
          s_transaction = schema.Schema.transaction;
          s_tt_bi =
            (if schema.Schema.transaction then Schema.tt_begin_index schema
             else -1);
          s_tt_ei =
            (if schema.Schema.transaction then Schema.tt_end_index schema
             else -1);
          s_left_on = Option.map comp l.Plan.left_on;
          s_hash = hash;
          s_period = period;
          s_checks = comp_list l.Plan.checks;
        })
      levels
  in
  let proj_items =
    List.map
      (function
        | Star ->
            fun rt ->
              Array.fold_right
                (fun b acc -> Array.to_list b.Eval.b_row @ acc)
                rt.binds []
        | Qual_star q -> (
            match find_alias (lc q) with
            | Some k -> fun rt -> Array.to_list rt.binds.(k).Eval.b_row
            | None -> fun _ -> Eval.sql_error "unknown alias %s.*" q)
        | Proj_expr (e, _) ->
            let c = comp e in
            fun rt -> [ c rt ])
      s.proj
  in
  let grouped =
    s.group_by <> [] || s.having <> None
    || List.exists
         (function Proj_expr (e, _) -> Eval.fold_has_agg e | _ -> false)
         s.proj
  in
  {
    p_id = Atomic.fetch_and_add next_id 1;
    p_select = s;
    p_srcs = srcs;
    p_n = n;
    p_grouped = grouped;
    p_const_checks = comp_list plan.Plan.consts;
    p_proj = (fun rt -> List.concat_map (fun f -> f rt) proj_items);
    p_keys = List.map (fun (e, _) -> comp e) s.order_by;
    p_join_event = Plan.join_event plan;
    p_tt_index = cat.Catalog.options.Catalog.temporal_index;
  }

let compile_select cat s =
  match compile_select_exn cat s with
  | p -> Some p
  | exception Plan.Unsupported _ -> None

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let run_plan (es : estate) (p : cplan) (env : Eval.env) : Result_set.t =
  let cat = env.Eval.cat in
  let obs = cat.Catalog.obs in
  let n = p.p_n in
  (* Resolve source tables against the live database in source order; a
     vanished table raises the interpreter's own resolution error (in
     practice a drop bumps the plan token first). *)
  let tabs =
    Array.map
      (fun sr ->
        match Database.find_table cat.Catalog.db sr.s_name with
        | Some t -> t
        | None -> Eval.sql_error "unknown table or view %s" sr.s_name)
      p.p_srcs
  in
  let binds =
    Array.map
      (fun sr ->
        { Eval.b_alias = sr.s_alias; b_cols = sr.s_cols; b_row = [||] })
      p.p_srcs
  in
  let rt = { env; binds } in
  let binds_list = Array.to_list binds in
  let slots =
    match Hashtbl.find_opt es.es_caches p.p_id with
    | Some a -> a
    | None ->
        let a = Array.make (max n 1) None in
        Hashtbl.replace es.es_caches p.p_id a;
        a
  in
  let entry_for i =
    let t = tabs.(i) in
    match slots.(i) with
    | Some e when e.e_table == t && e.e_version = t.Table.version -> e
    | _ ->
        let e =
          {
            e_table = t;
            e_version = t.Table.version;
            e_rows = None;
            e_hash = None;
            e_scanned = false;
          }
        in
        slots.(i) <- Some e;
        e
  in
  let tt_filter i =
    let sr = p.p_srcs.(i) in
    if not sr.s_transaction then None
    else
      match env.Eval.tt_mode with
      | `All -> None
      | `Current ->
          Some
            (fun (r : Value.t array) ->
              Value.to_date_exn r.(sr.s_tt_ei) = Date.forever)
      | `Asof d ->
          Some
            (fun (r : Value.t array) ->
              Value.to_date_exn r.(sr.s_tt_bi) <= d
              && d < Value.to_date_exn r.(sr.s_tt_ei))
  in
  (* The per-run memo mirrors the interpreter's per-evaluation laziness:
     within one run the row list and hash index are frozen at first use
     (a mid-run mutation by a routine does not refresh them, exactly as
     a forced lazy stays forced), while across runs the persistent entry
     revalidates against the table's identity and version. *)
  let run_rows : Value.t array list option array = Array.make (max n 1) None in
  let run_hash : (Value.t, Value.t array list) Hashtbl.t option array =
    Array.make (max n 1) None
  in
  let scan_rows i =
    match run_rows.(i) with
    | Some rows -> rows
    | None ->
        let e = entry_for i in
        let rows =
          match e.e_rows with
          | Some rows -> rows
          | None ->
              let sr = p.p_srcs.(i) in
              let t = tabs.(i) in
              let rows =
                match tt_filter i with
                | None -> Table.to_list t
                | Some pfn ->
                    if p.p_tt_index then
                      let begin_, end_ =
                        match env.Eval.tt_mode with
                        | `Asof d -> (d, d + 1)
                        | _ -> (Date.forever - 1, max_int)
                      in
                      List.filter pfn
                        (Table.overlapping t ~bi:sr.s_tt_bi ~ei:sr.s_tt_ei
                           ~begin_ ~end_)
                    else List.filter pfn (Table.to_list t)
              in
              e.e_rows <- Some rows;
              rows
        in
        run_rows.(i) <- Some rows;
        rows
  in
  let hash_index i h_ci =
    match run_hash.(i) with
    | Some h -> h
    | None ->
        let e = entry_for i in
        let h =
          match e.e_hash with
          | Some h -> h
          | None ->
              let h = Plan.hash_rows h_ci (scan_rows i) in
              e.e_hash <- Some h;
              h
        in
        run_hash.(i) <- Some h;
        h
  in
  (* The first level probes its hash index once per run.  Outside
     routines and subqueries a SELECT typically runs once per statement,
     where building the index costs more than the scan it replaces: its
     first run at a table version scans, and only a second run (a
     top-level loop) builds the index. *)
  let top_level = env.Eval.frames = [] && !(env.Eval.depth) = 0 in
  let use_hash i =
    i > 0 || (not top_level) || Option.is_some run_hash.(i)
    ||
    let e = entry_for i in
    Option.is_some e.e_hash || e.e_scanned || (e.e_scanned <- true; false)
  in
  let period_scan i =
    match p.p_srcs.(i).s_period with
    | None -> None
    | Some pd -> (
        let t = tabs.(i) in
        let fold init pick adjust bounds =
          List.fold_left
            (fun acc b ->
              match acc with
              | None -> None
              | Some v -> (
                  match b.bd_e rt with
                  | Value.Date d -> Some (pick v (adjust d b.bd_incl))
                  | _ -> None))
            (Some init) bounds
        in
        let u =
          fold max_int min (fun d incl -> if incl then d + 1 else d) pd.pd_ubs
        in
        let l =
          fold min_int max (fun d incl -> if incl then d - 1 else d) pd.pd_lbs
        in
        match (l, u) with
        | Some l, Some u ->
            let cands =
              Table.overlapping t ~bi:pd.pd_bi ~ei:pd.pd_ei ~begin_:l ~end_:u
            in
            let nsat =
              if Table.overlap_residuals t ~bi:pd.pd_bi ~ei:pd.pd_ei = 0 then
                pd.pd_sat
              else 0
            in
            if Trace.enabled obs then begin
              let tname = Table.name t in
              Trace.count obs "scan.indexed" 1;
              Trace.count obs ("scan.indexed:" ^ tname) 1;
              Trace.count obs "rows.probed" (List.length cands);
              let bound d inf =
                if d = min_int || d = max_int then inf else Date.to_string d
              in
              Trace.event obs "scan"
                (Printf.sprintf
                   "indexed table=%s window=(%s,%s) probes=%d elided=%d" tname
                   (bound l "-inf") (bound u "+inf") (List.length cands) nsat)
            end;
            Some
              ( (match tt_filter i with
                | Some pfn -> List.filter pfn cands
                | None -> cands),
                nsat )
        | _ ->
            if Trace.enabled obs then begin
              Trace.count obs "scan.residual_fallback" 1;
              Trace.event obs "scan"
                (Printf.sprintf "fallback table=%s (non-date bound)"
                   (Table.name t))
            end;
            None)
  in
  if Trace.enabled obs && n > 0 then Trace.event obs "join" p.p_join_event;
  let saved_frames = env.Eval.frames in
  env.Eval.frames <- binds_list :: env.Eval.frames;
  Fun.protect
    ~finally:(fun () -> env.Eval.frames <- saved_frames)
    (fun () ->
      let grouped = p.p_grouped in
      let snapshots = ref [] in
      let flat_rows = ref [] in
      let emit () =
        Guard.charge_rows env.Eval.guard 1;
        if grouped then
          snapshots := Array.map (fun b -> b.Eval.b_row) binds :: !snapshots
        else begin
          let out = p.p_proj rt in
          let keys = List.map (fun k -> k rt) p.p_keys in
          flat_rows := Array.of_list (out @ keys) :: !flat_rows
        end
      in
      let all_pass (checks : cexpr array) =
        let m = Array.length checks in
        let rec go j = j >= m || (Eval.truthy (checks.(j) rt) && go (j + 1)) in
        go 0
      in
      let rec extend i =
        if i = n then begin
          if n = 0 then begin if all_pass p.p_const_checks then emit () end
          else emit ()
        end
        else begin
          let sr = p.p_srcs.(i) in
          let b = binds.(i) in
          let iterate rows checks =
            List.iter
              (fun row ->
                b.Eval.b_row <- row;
                if all_pass checks then begin
                  Trace.count obs "rows.matched" 1;
                  extend (i + 1)
                end)
              rows
          in
          match sr.s_left_on with
          | Some on ->
              let matched = ref false in
              let rows =
                match period_scan i with
                | Some (cands, _) -> cands
                | None ->
                    let rows = scan_rows i in
                    if Trace.enabled obs then begin
                      Trace.count obs "scan.full" 1;
                      Trace.count obs "rows.probed" (List.length rows)
                    end;
                    rows
              in
              List.iter
                (fun row ->
                  b.Eval.b_row <- row;
                  if Eval.truthy (on rt) then begin
                    matched := true;
                    if all_pass sr.s_checks then begin
                      Trace.count obs "rows.matched" 1;
                      extend (i + 1)
                    end
                  end)
                rows;
              if not !matched then begin
                b.Eval.b_row <- Array.make (Array.length sr.s_cols) Value.Null;
                if all_pass sr.s_checks then extend (i + 1)
              end
          | None -> (
              let full_scan () =
                let rows = scan_rows i in
                if Trace.enabled obs then begin
                  Trace.count obs "scan.full" 1;
                  Trace.count obs ("scan.full:" ^ Table.name tabs.(i)) 1;
                  Trace.count obs "rows.probed" (List.length rows)
                end;
                iterate rows sr.s_checks
              in
              match sr.s_hash with
              | Some h when use_hash i ->
                  let rows =
                    let k = h.h_probe rt in
                    if Value.is_null k then []
                    else
                      match Hashtbl.find_opt (hash_index i h.h_ci) k with
                      | Some rs -> rs
                      | None -> []
                  in
                  if Trace.enabled obs then begin
                    Trace.count obs "scan.hash" 1;
                    Trace.count obs "rows.probed" (List.length rows);
                    Trace.count obs "conjuncts.elided" 1
                  end;
                  iterate rows h.h_checks
              | Some _ -> full_scan ()
              | None -> (
                  match period_scan i with
                  | Some (cands, nsat) ->
                      let checks =
                        if nsat > 0 then
                          match sr.s_period with
                          | Some pd -> pd.pd_checks_exact
                          | None -> assert false
                        else sr.s_checks
                      in
                      if Trace.enabled obs && nsat > 0 then
                        Trace.count obs "conjuncts.elided" nsat;
                      iterate cands checks
                  | None -> full_scan ()))
        end
      in
      extend 0;
      if grouped then
        Eval.finish_grouped env p.p_select binds_list (List.rev !snapshots)
      else Eval.finish_flat env p.p_select (List.rev !flat_rows))

(* ------------------------------------------------------------------ *)
(* The evaluator hook                                                  *)
(* ------------------------------------------------------------------ *)

let lookup_plan (env : Eval.env) (s : select) : cplan option =
  let cat = env.Eval.cat in
  let tok = Catalog.plan_token cat in
  let es = estate_of env in
  match Hashtbl.find_opt es.es_plans s with
  | Some (t, p) when t = tok -> p
  | _ ->
      let st = plans_of cat in
      Mutex.lock st.mu;
      let cached = Hashtbl.find_opt st.plans s in
      Mutex.unlock st.mu;
      let p =
        match cached with
        | Some (t, p) when t = tok -> p
        | _ ->
            let p = compile_select cat s in
            Mutex.lock st.mu;
            Hashtbl.replace st.plans s (tok, p);
            Mutex.unlock st.mu;
            p
      in
      Hashtbl.replace es.es_plans s (tok, p);
      p

let select_hook (env : Eval.env) (s : select) : Result_set.t option =
  match lookup_plan env s with
  | None -> None
  | Some p -> Some (run_plan (estate_of env) p env)

let install () = Eval.select_compiler := select_hook

(* Compile [q]'s top-level SELECT into the catalog's shared plan store
   ahead of execution, so catalogs sharing the store — parallel worker
   read views — start with a warm compiled entry instead of each paying
   the analysis on their first row. *)
let prewarm (cat : Catalog.t) (q : query) =
  if cat.Catalog.options.Catalog.compile then
    match q with
    | Select s -> (
        let tok = Catalog.plan_token cat in
        let st = plans_of cat in
        Mutex.lock st.mu;
        let known = Hashtbl.find_opt st.plans s in
        Mutex.unlock st.mu;
        match known with
        | Some (t, _) when t = tok -> ()
        | _ ->
            let p = compile_select cat s in
            Mutex.lock st.mu;
            Hashtbl.replace st.plans s (tok, p);
            Mutex.unlock st.mu)
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Compiled constant-period primitive                                  *)
(* ------------------------------------------------------------------ *)

(* The sort-adjacent step of the stratum's constant-period table
   function, over a flat int array instead of a sorted-unique list:
   points outside (bt, et) are dropped, duplicates collapse, and
   consecutive points form the ascending [a, b) period rows.  Produces
   exactly the interpreted variant's rows. *)
let adjacent_periods ~(bt : Date.t) ~(et : Date.t) (points : Date.t list) :
    Value.t array list =
  if bt >= et then []
  else begin
    let inside = List.filter (fun d -> d > bt && d < et) points in
    let arr = Array.make (List.length inside + 2) bt in
    arr.(1) <- et;
    List.iteri (fun i d -> arr.(i + 2) <- d) inside;
    Array.sort Date.compare arr;
    let rows = ref [] in
    let prev = ref arr.(0) in
    for i = 1 to Array.length arr - 1 do
      let d = arr.(i) in
      if d <> !prev then begin
        rows := [| Value.Date !prev; Value.Date d |] :: !rows;
        prev := d
      end
    done;
    List.rev !rows
  end
