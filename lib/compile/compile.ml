(* Plan compilation: expression lowering plus a plan store.  A SELECT
   the interpreter would plan and lower afresh on every evaluation is
   planned once per (statement, plan token) by the shared planner,
   Sqleval.Plan, and its expressions are lowered into specialised
   closures; the result is cached for the statement's lifetime.  Both
   evaluators run their lowered plan through the same executor,
   {!Sqleval.Eval.run_plan}, so join order, access paths, trace counters
   and guard charges are the same by construction.  What compilation
   removes is the per-evaluation overhead: planning, alias/column name
   resolution (pre-resolved to array offsets), generic value dispatch
   on the common INT/DATE comparisons, per-call hash-index builds, and
   transaction-time re-filtering of unchanged tables.

   Coverage is partial by design: any SELECT whose FROM contains
   something other than base-table references (views, derived tables,
   table functions) falls back to the interpreter, as does one with a
   nested join right of a LEFT JOIN; the (select, token) pair is then
   cached as unsupported.  Expressions always compile.  A column no
   plan level carries (a PSM parameter or variable, an outer query's
   column) becomes a per-run slot, evaluated at its first use; a stored-
   function call evaluates its arguments with closures and invokes the
   routine by name, so depth guards, fault injection and savepoints are
   the interpreter's.  A construct without a specialised closure
   (aggregates, subquery predicates) gets a generic closure that re-
   enters the interpreter for that node only, counted per evaluation as
   [compile.reentries]. *)

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

(* A compiled SELECT: the lowered plan over its base tables, each
   level's data being the table's lookup name (resolved per run) and
   schema (fixed by the plan token). *)
type cplan = { p_id : int; p_lowered : (string * Schema.t) Eval.lowered }

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

(* SELECT ASTs by physical identity.  Within one statement every
   evaluation of a SELECT reaches the same AST node (the statement's or
   a stored routine's body), so identity is exact and cheaper than the
   structural hash-and-compare; the shared store stays structural,
   since served read views re-transform statements into fresh ASTs. *)
module Phys = Hashtbl.Make (struct
  type t = select

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Per-statement state, hung off the environment's extension slot: a
   mutex-free local mirror of the plan store plus the row/hash caches.
   The slot is a ref cell shared with routine child environments, so
   the many SELECT evaluations inside one top-level statement — the
   stratum's generated PSM loops — all hit the same warm caches. *)
type estate = {
  es_plans : ((int * int * int) * cplan option) Phys.t;
  es_caches : (int, entry option array) Hashtbl.t;  (* plan id -> sources *)
}

type Catalog.ext += Estate of estate

let estate_of (env : Eval.env) : estate =
  match !(env.Eval.ext_state) with
  | Some (Estate es) -> es
  | _ ->
      let es =
        { es_plans = Phys.create 16; es_caches = Hashtbl.create 16 }
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
  let generic e (rt : Eval.rt) =
    Trace.count rt.Eval.env.Eval.cat.Catalog.obs "compile.reentries" 1;
    Eval.eval_expr rt.Eval.env e
  in
  (* A column no plan level carries names a PSM variable or an outer
     query's column, neither of which can change while this plan runs:
     it becomes a per-run slot, evaluated by the interpreter at its
     first use (so an unknown name raises exactly when and where the
     interpreter would) and read back for the rest of the run.  Equal
     references share one slot. *)
  let nslots = ref 0 and slot_of = ref [] in
  let slot e key =
    let k =
      match List.assoc_opt key !slot_of with
      | Some k -> k
      | None ->
          let k = !nslots in
          incr nslots;
          slot_of := (key, k) :: !slot_of;
          k
    in
    fun (rt : Eval.rt) ->
      let v = rt.Eval.slots.(k) in
      if v != Eval.unset then v
      else
        let v = Eval.eval_expr rt.Eval.env e in
        rt.Eval.slots.(k) <- v;
        v
  in
  let rec comp (e : expr) : Eval.cexpr =
    match e with
    | Lit v -> fun _ -> v
    | Col (q, name) -> (
        let lname = lc name in
        match q with
        | Some qq -> (
            match find_alias (lc qq) with
            | Some bi -> (
                match find_col (snd binds_static.(bi)) lname with
                | Some ci -> fun rt -> rt.Eval.binds.(bi).Eval.b_row.(ci)
                | None -> fun _ -> Eval.sql_error "no column %s in %s" name qq)
            | None -> slot e (Some (lc qq), lname))
        | None -> (
            let hits = ref [] in
            Array.iteri
              (fun i (_, cols) ->
                match find_col cols lname with
                | Some ci -> hits := (i, ci) :: !hits
                | None -> ())
              binds_static;
            match !hits with
            | [ (bi, ci) ] -> fun rt -> rt.Eval.binds.(bi).Eval.b_row.(ci)
            | [] -> slot e (None, lname)
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
        fun rt -> Value.Date rt.Eval.env.Eval.now
    | Fun_call (name, args) -> (
        let argv = comp_args args in
        match Builtins.find name with
        | Some f -> fun rt -> f ~now:rt.Eval.env.Eval.now name (argv rt)
        | None ->
            (* A stored function, looked up by name at call time: the
               depth guard, fault site, savepoint and a mid-statement
               redefinition behave as in the interpreter. *)
            fun rt -> Eval.call_stored_function rt.Eval.env name (argv rt))
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
    | Exists _ | Scalar_subquery _ | Agg _ | In_pred (_, In_query _, _) ->
        generic e
  (* Argument lists, evaluated left to right as the interpreter does;
     the short ones without allocating a closure per call. *)
  and comp_args args : Eval.rt -> Value.t list =
    match List.map comp args with
    | [] -> fun _ -> []
    | [ a ] -> fun rt -> [ a rt ]
    | [ a; b ] ->
        fun rt ->
          let x = a rt in
          [ x; b rt ]
    | cs -> fun rt -> List.map (fun c -> c rt) cs
  in
  let lowered = Eval.lower comp s plan in
  {
    p_id = Atomic.fetch_and_add next_id 1;
    p_lowered = { lowered with Eval.lw_slots = !nslots };
  }

let compile_select cat s =
  match compile_select_exn cat s with
  | p -> Some p
  | exception Plan.Unsupported _ -> None

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* Run [p] through the executor over this statement's row and hash
   caches. *)
let run (es : estate) (p : cplan) (env : Eval.env) : Result_set.t =
  let levels = p.p_lowered.Eval.lw_plan.Plan.levels in
  let slots =
    match Hashtbl.find_opt es.es_caches p.p_id with
    | Some a -> a
    | None ->
        let a = Array.make (max (Array.length levels) 1) None in
        Hashtbl.replace es.es_caches p.p_id a;
        a
  in
  let top_level = env.Eval.frames = [] && !(env.Eval.depth) = 0 in
  (* Resolve source tables against the live database in source order; a
     vanished table raises the interpreter's own resolution error (in
     practice a drop bumps the plan token first).  Within one run the
     row list and hash index are frozen at first use (a mid-run mutation
     by a routine does not refresh them, exactly as the interpreter's
     forced lazy stays forced), while across runs the entry revalidates
     against the table's identity and version. *)
  let source i (l : (string * Schema.t, _) Plan.level) =
    let name, schema = l.Plan.data in
    let t =
      match Database.find_table env.Eval.cat.Catalog.db name with
      | Some t -> t
      | None -> Eval.sql_error "unknown table or view %s" name
    in
    let entry () =
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
    let tt = Eval.tt_filter env schema in
    let rows =
      lazy
        (let e = entry () in
         match e.e_rows with
         | Some rows -> rows
         | None ->
             let rows = Eval.tt_rows env t tt in
             e.e_rows <- Some rows;
             rows)
    in
    let index ci =
      lazy
        (let e = entry () in
         match e.e_hash with
         | Some h -> h
         | None ->
             let h = Plan.hash_rows ci (Lazy.force rows) in
             e.e_hash <- Some h;
             h)
    in
    (* The first level probes its hash index once per run.  Outside
       routines and subqueries a SELECT typically runs once per
       statement, where building the index costs more than the scan it
       replaces: its first run at a table version scans, and only a
       second run (a top-level loop) builds the index. *)
    let probe_first () =
      i > 0 || (not top_level)
      ||
      let e = entry () in
      Option.is_some e.e_hash || e.e_scanned || (e.e_scanned <- true; false)
    in
    {
      Eval.src_table = Some t;
      src_tt = tt;
      src_rows = (fun () -> Lazy.force rows);
      src_index =
        (match l.Plan.hash with
        | Some h when probe_first () ->
            Some (Eval.fixed_index (index h.Plan.h_ci))
        | _ -> None);
    }
  in
  Eval.run_plan env p.p_lowered (Array.mapi source levels)

(* ------------------------------------------------------------------ *)
(* The evaluator hook                                                  *)
(* ------------------------------------------------------------------ *)

let lookup_plan (es : estate) (env : Eval.env) (s : select) : cplan option =
  let cat = env.Eval.cat in
  let tok = Catalog.plan_token cat in
  match Phys.find_opt es.es_plans s with
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
      Phys.replace es.es_plans s (tok, p);
      p

let select_hook (env : Eval.env) (s : select) : Result_set.t option =
  let es = estate_of env in
  match lookup_plan es env s with
  | None -> None
  | Some p -> Some (run es p env)

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
