(* The access-path planner: one analysis of a SELECT's FROM and WHERE,
   consumed by both evaluators, so the interpreter and the closure
   compiler (lib/compile) share join order, conjunct placement and
   access paths by construction.  Each evaluator lowers the plan's
   expressions into closures ({!map}) and hands it to the one executor,
   {!Eval.run_plan}.

   Joins are evaluated as nested loops in FROM order.  Per level the
   planner decides:
   - which conjuncts run there: each at the earliest level at which
     every local alias it reads is bound, cheap conjuncts (no stored-
     function calls) before costly ones;
   - a hash key: an equality [col = probe] between a column of this
     source and an expression bound before it.  An equality whose probe
     reads an earlier FROM source outranks one whose probe is constant
     for the scan (parameter, literal, outer variable); the constant
     equality then stays a residual check.  Hashing applies to inner
     joins over base tables, materialised rows and memoized (non-
     native) table functions, whose rows are fixed per argument vector;
   - an interval-index window: range conjuncts on a temporal base
     table's begin_time/end_time whose other side is bound earlier.
     The window only has to return a superset, so every candidate is
     still checked exactly, except the comparisons the window implies
     when the index has no residual rows. *)

open Sqlast.Ast
module Value = Sqldb.Value
module Schema = Sqldb.Schema

(* A FROM shape no evaluator supports (the interpreter reports it as a
   SQL error), or, from a resolver, one a particular evaluator does not
   cover. *)
exception Unsupported of string

(* What a resolved FROM item offers the planner. *)
type kind =
  | Table of Schema.t  (* base table: hash and interval-index paths *)
  | Rows  (* materialised view or derived table: hash path *)
  | Tfun of bool  (* table function; [true] when its rows are memoized *)
  | Per_row  (* derived table re-evaluated per outer row: scanned *)

(* An interval-index window bound: begin_time < u (upper) or
   end_time > l (lower); inclusive comparisons widen by one day. *)
type 'e bound = { bound : 'e; incl : bool }

(* The plan's expressions have type ['e]: {!plan} yields [expr]s, which
   an evaluator lowers into closures with {!map}. *)
type 'e period = {
  pd_bi : int;
  pd_ei : int;
  pd_ubs : 'e bound list;
  pd_lbs : 'e bound list;
  pd_nsat : int;  (* conjuncts the window implies when the index is exact *)
  pd_checks_exact : 'e list;  (* level checks minus the implied ones *)
}

type 'e hash = {
  h_col : string;
  h_ci : int;  (* hashed column offset in the source's rows *)
  h_probe : 'e;
  h_checks : 'e list;  (* level checks minus the hash equality *)
}

type ('a, 'e) level = {
  alias : string;  (* lowercase *)
  cols : string array;  (* lowercase *)
  kind : kind;
  data : 'a;  (* the resolver's handle on the source *)
  left_on : 'e option;  (* LEFT JOIN condition; None for inner sources *)
  checks : 'e list;  (* this level's conjuncts, cheap first *)
  hash : 'e hash option;  (* inner joins under options.hash_joins only *)
  period : 'e period option;  (* temporal tables under options.temporal_index *)
}

type ('a, 'e) t = {
  levels : ('a, 'e) level array;
  consts : 'e list;  (* the conjuncts of a SELECT with no FROM *)
}

let lc = String.lowercase_ascii

let rec split_and = function
  | Binop (And, a, b) -> split_and a @ split_and b
  | e -> [ e ]

(* Flatten explicit joins: inner-join ON conditions split into ordinary
   conjuncts; a left join marks its right side with the ON condition so
   the join loop can null-extend unmatched combinations. *)
let rec flatten_from (tr : table_ref) =
  match tr with
  | Tjoin (l, Jinner, r, on) ->
      let ul, cl = flatten_from l in
      let ur, cr = flatten_from r in
      (ul @ ur, cl @ cr @ split_and on)
  | Tjoin (l, Jleft, r, on) ->
      let ul, cl = flatten_from l in
      (match r with
      | Tjoin _ ->
          raise
            (Unsupported
               "a nested join on the right of a LEFT JOIN is not supported")
      | _ -> ());
      (ul @ [ (r, Some on) ], cl)
  | _ -> ([ (tr, None) ], [])

(* Collect (qualifier, column) references of a select block, shallowly. *)
let collect_col_refs (sel : select) : (string option * string) list =
  let acc = ref [] in
  let rec walk (e : expr) =
    match e with
    | Col (q, c) -> acc := (q, c) :: !acc
    | Lit _ -> ()
    | Binop (_, a, b) -> walk a; walk b
    | Unop (_, a) | Cast (a, _) | Is_null (a, _) -> walk a
    | Fun_call (_, args) -> List.iter walk args
    | Agg (_, _, Some a) -> walk a
    | Agg (_, _, None) -> ()
    | Case c ->
        Option.iter walk c.case_operand;
        List.iter (fun (w, t) -> walk w; walk t) c.case_branches;
        Option.iter walk c.case_else
    | Exists _ | Scalar_subquery _ -> ()
    | In_pred (e, In_list es, _) -> walk e; List.iter walk es
    | In_pred (e, In_query _, _) -> walk e
    | Between (a, b, c, _) -> walk a; walk b; walk c
    | Like (a, b, _) -> walk a; walk b
  in
  List.iter (function Proj_expr (e, _) -> walk e | _ -> ()) sel.proj;
  Option.iter walk sel.where;
  List.iter walk sel.group_by;
  Option.iter walk sel.having;
  !acc

let has_fun_call e =
  fold_expr_funcalls
    (fun acc name _ -> acc || not (Builtins.is_builtin name))
    false e

(* The hash index of [rows] on column [ci]; NULL keys never match, and
   each key's rows keep their scan order. *)
let hash_rows ci (rows : Value.t array list) =
  let h = Hashtbl.create 256 in
  List.iter
    (fun (r : Value.t array) ->
      let k = r.(ci) in
      if not (Value.is_null k) then
        Hashtbl.replace h k
          (r :: Option.value (Hashtbl.find_opt h k) ~default:[]))
    (List.rev rows);
  h

(* Plan [s].  [resolve] turns each flattened FROM item, in order, into
   (alias, lowercase columns, kind, handle); it may raise [Unsupported]
   for shapes its evaluator does not cover. *)
let plan (o : Catalog.options) (s : select)
    (resolve : table_ref -> string * string array * kind * 'a) : ('a, expr) t =
  let flat_from, join_conjuncts =
    List.fold_left
      (fun (us, cs) tr ->
        let u, c = flatten_from tr in
        (us @ u, cs @ c))
      ([], []) s.from
  in
  let srcs =
    Array.of_list
      (List.map
         (fun (tr, on) ->
           let alias, cols, kind, data = resolve tr in
           (lc alias, cols, kind, data, on))
         flat_from)
  in
  let n = Array.length srcs in
  let alias_of i = let a, _, _, _, _ = srcs.(i) in a in
  let cols_of i = let _, c, _, _, _ = srcs.(i) in c in
  let alias_level = List.init n (fun i -> (alias_of i, i)) in
  let has_col i c = Array.exists (fun col -> col = c) (cols_of i) in
  let rec find_level p i =
    if i >= n then None else if p i then Some i else find_level p (i + 1)
  in
  (* Which local levels does an expression reference?  An unqualified
     column counts for the first source carrying it, and correlated
     subqueries contribute their qualified references. *)
  let rec expr_aliases acc (e : expr) =
    match e with
    | Col (Some q, _) -> (
        match List.assoc_opt (lc q) alias_level with
        | Some lvl -> lvl :: acc
        | None -> acc)
    | Col (None, c) -> (
        let c = lc c in
        match find_level (fun i -> has_col i c) 0 with
        | Some i -> List.assoc (alias_of i) alias_level :: acc
        | None -> acc)
    | _ ->
        let acc =
          fold_expr_queries
            (fun acc q ->
              List.fold_left
                (fun acc sel ->
                  List.fold_left
                    (fun acc r ->
                      match r with
                      | Some q, _ -> (
                          match List.assoc_opt (lc q) alias_level with
                          | Some lvl -> lvl :: acc
                          | None -> acc)
                      | None, _ -> acc)
                    acc (collect_col_refs sel))
                acc (query_selects q))
            acc e
        in
        shallow_fold_expr expr_aliases acc e
  and shallow_fold_expr f acc e =
    match e with
    | Lit _ | Col _ -> acc
    | Binop (_, a, b) -> f (f acc a) b
    | Unop (_, a) | Cast (a, _) | Is_null (a, _) -> f acc a
    | Fun_call (_, args) -> List.fold_left f acc args
    | Agg (_, _, Some a) -> f acc a
    | Agg (_, _, None) -> acc
    | Case c ->
        let acc = match c.case_operand with Some e -> f acc e | None -> acc in
        let acc =
          List.fold_left (fun acc (w, t) -> f (f acc w) t) acc c.case_branches
        in
        (match c.case_else with Some e -> f acc e | None -> acc)
    | Exists _ | Scalar_subquery _ -> acc
    | In_pred (e, In_list es, _) -> List.fold_left f (f acc e) es
    | In_pred (e, In_query _, _) -> f acc e
    | Between (a, b, c, _) -> f (f (f acc a) b) c
    | Like (a, b, _) -> f (f acc a) b
  in
  (* Each conjunct goes to the earliest level at which all its local
     aliases are bound. *)
  let level_conjuncts = Array.make (max n 1) ([] : expr list) in
  List.iter
    (fun c ->
      let lvl = List.fold_left max 0 (expr_aliases [] c) in
      level_conjuncts.(lvl) <- c :: level_conjuncts.(lvl))
    (join_conjuncts @ match s.where with None -> [] | Some w -> split_and w);
  Array.iteri
    (fun i cs ->
      let cheap, costly = List.partition (fun c -> not (has_fun_call c)) cs in
      level_conjuncts.(i) <- cheap @ costly)
    level_conjuncts;
  (* Which (lowercase) column of source [i] does [e] name, if any?  An
     unqualified column must belong to source i and no other source. *)
  let col_of_source i e =
    let al = alias_of i in
    match e with
    | Col (Some q, c) when lc q = al ->
        let c = lc c in
        if has_col i c then Some c else None
    | Col (None, c) ->
        let c = lc c in
        if
          has_col i c
          && find_level (fun j -> alias_of j <> al && has_col j c) 0 = None
        then Some c
        else None
    | _ -> None
  in
  let bound_before i e =
    List.for_all (fun lvl -> lvl < i) (expr_aliases [] e)
  in
  let find_hash_key i =
    let candidates =
      List.filter_map
        (fun c ->
          match c with
          | Binop (Eq, a, b) -> (
              match (col_of_source i a, col_of_source i b) with
              | Some col, _ when bound_before i b -> Some (col, b, c)
              | _, Some col when bound_before i a -> Some (col, a, c)
              | _ -> None)
          | _ -> None)
        level_conjuncts.(i)
    in
    let joins, consts =
      List.partition
        (fun (_, probe, _) -> expr_aliases [] probe <> [])
        candidates
    in
    match joins @ consts with
    | [] -> None
    | (col, probe, used) :: _ ->
        let cols = cols_of i in
        let rec index j = if cols.(j) = col then j else index (j + 1) in
        Some
          {
            h_col = col;
            h_ci = index 0;
            h_probe = probe;
            h_checks = List.filter (fun c -> c != used) level_conjuncts.(i);
          }
  in
  let find_period_plan i schema left_on =
    let which e =
      match col_of_source i e with
      | Some c when c = Schema.begin_time_col -> Some `Begin
      | Some c when c = Schema.end_time_col -> Some `End
      | _ -> None
    in
    (* A usable bound is computable before source i is bound and side-
       effect free: it is evaluated once per scan, not once per row. *)
    let usable e = bound_before i e && not (has_fun_call e) in
    (* Each entry is (bound, source conjunct, exact): [exact] marks the
       comparisons the window implies outright — every one except Eq,
       whose other half the window cannot carry. *)
    let ubs = ref [] and lbs = ref [] in
    let add r bound incl c exact = r := ({ bound; incl }, c, exact) :: !r in
    let consider c =
      match c with
      | Binop (op, x, y) -> (
          match (which x, which y) with
          | Some side, None when usable y -> (
              match (side, op) with
              | `Begin, Le -> add ubs y true c true
              | `Begin, Eq -> add ubs y true c false
              | `Begin, Lt -> add ubs y false c true
              | `End, Ge -> add lbs y true c true
              | `End, Eq -> add lbs y true c false
              | `End, Gt -> add lbs y false c true
              | _ -> ())
          | None, Some side when usable x -> (
              match (side, op) with
              | `Begin, Ge -> add ubs x true c true
              | `Begin, Eq -> add ubs x true c false
              | `Begin, Gt -> add ubs x false c true
              | `End, Le -> add lbs x true c true
              | `End, Eq -> add lbs x true c false
              | `End, Lt -> add lbs x false c true
              | _ -> ())
          | _ -> ())
      | _ -> ()
    in
    (* A LEFT JOIN's matches are selected by its ON condition. *)
    List.iter consider
      (match left_on with
      | None -> level_conjuncts.(i)
      | Some on -> split_and on);
    if !ubs = [] && !lbs = [] then None
    else
      let sat =
        List.filter_map
          (fun (_, c, exact) -> if exact then Some c else None)
          (!ubs @ !lbs)
      in
      Some
        {
          pd_bi = Schema.begin_index schema;
          pd_ei = Schema.end_index schema;
          pd_ubs = List.map (fun (b, _, _) -> b) !ubs;
          pd_lbs = List.map (fun (b, _, _) -> b) !lbs;
          pd_nsat = List.length sat;
          pd_checks_exact =
            List.filter (fun c -> not (List.memq c sat)) level_conjuncts.(i);
        }
  in
  let levels =
    Array.mapi
      (fun i (alias, cols, kind, data, left_on) ->
        let hash =
          match kind with
          | (Table _ | Rows | Tfun true)
            when o.Catalog.hash_joins && left_on = None ->
              find_hash_key i
          | _ -> None
        in
        let period =
          match kind with
          | Table schema
            when schema.Schema.temporal && o.Catalog.temporal_index ->
              find_period_plan i schema left_on
          | _ -> None
        in
        let checks = level_conjuncts.(i) in
        { alias; cols; kind; data; left_on; checks; hash; period })
      srcs
  in
  { levels; consts = (if n = 0 then level_conjuncts.(0) else []) }

(* The trace's plan event: the join order with the statically chosen
   path per level.  (A period plan can still fall back at run time on a
   non-date bound; that shows up as a [scan.residual_fallback] counter.) *)
let join_event p =
  let path l =
    match (l.hash, l.kind) with
    | Some h, _ -> "hash(" ^ h.h_col ^ ")"
    | None, (Tfun _ | Per_row) -> "lateral"
    | None, _ -> if Option.is_some l.period then "index" else "full"
  in
  "order="
  ^ String.concat ","
      (Array.to_list (Array.map (fun l -> l.alias ^ ":" ^ path l) p.levels))

(* Lower every expression of a plan with [f], keeping its shape. *)
let map f p =
  let fs = List.map f in
  let level l =
    {
      l with
      left_on = Option.map f l.left_on;
      checks = fs l.checks;
      hash =
        Option.map
          (fun h -> { h with h_probe = f h.h_probe; h_checks = fs h.h_checks })
          l.hash;
      period =
        Option.map
          (fun pd ->
            let bs = List.map (fun b -> { b with bound = f b.bound }) in
            {
              pd with
              pd_ubs = bs pd.pd_ubs;
              pd_lbs = bs pd.pd_lbs;
              pd_checks_exact = fs pd.pd_checks_exact;
            })
          l.period;
    }
  in
  { levels = Array.map level p.levels; consts = fs p.consts }
