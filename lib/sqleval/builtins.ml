(* Builtin scalar functions, including the paper's FIRST_INSTANCE /
   LAST_INSTANCE period-manipulation helpers (Figure 4).

   Each builtin takes the evaluated argument values; NULL propagation is
   the SQL convention (NULL in, NULL out) except for COALESCE. *)

open Sqldb

exception Unknown_builtin of string

let null_in args = List.exists Value.is_null args

let wrong_arity name =
  Value.type_error "wrong number of arguments to %s" name

(* SQL LIKE pattern matching: '%' = any sequence, '_' = any character. *)
let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  (* Memoized recursion over (pattern index, string index). *)
  let memo = Hashtbl.create 16 in
  let rec go pi si =
    match Hashtbl.find_opt memo (pi, si) with
    | Some r -> r
    | None ->
        let r =
          if pi = np then si = ns
          else
            match pattern.[pi] with
            | '%' -> go (pi + 1) si || (si < ns && go pi (si + 1))
            | '_' -> si < ns && go (pi + 1) (si + 1)
            | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
        in
        Hashtbl.add memo (pi, si) r;
        r
  in
  go 0 0

let two name args f =
  match args with [ a; b ] -> f a b | _ -> wrong_arity name

let one name args f = match args with [ a ] -> f a | _ -> wrong_arity name

(* Identifier case folding without allocating when [s] is already
   lowercase (the common case on per-row name lookups). *)
let lower s =
  if String.exists (fun c -> c >= 'A' && c <= 'Z') s then
    String.lowercase_ascii s
  else s

(* A builtin takes the session's CURRENT_DATE, its name as written (for
   error messages) and the evaluated arguments. *)
type fn = now:Date.t -> string -> Value.t list -> Value.t

(* NULL in, NULL out. *)
let strict f : fn =
 fun ~now:_ name args -> if null_in args then Value.Null else f name args

let unary f = strict (fun name args -> one name args f)
let binary f = strict (fun name args -> two name args f)

let fold_args pick =
  strict (fun name args ->
      match args with
      | [] -> wrong_arity name
      | v :: vs ->
          List.fold_left
            (fun acc v -> if pick (Value.compare_total v acc) then v else acc)
            v vs)

let date_part part =
  unary (fun v ->
      let y, m, d = Date.to_ymd (Value.to_date_exn v) in
      Value.Int (part (y, m, d)))

let substr =
  strict (fun name args ->
      match args with
      | [ s; start ] ->
          let s = Value.to_str_exn s and start = Value.to_int_exn start in
          let pos = max 0 (start - 1) in
          let len = max 0 (String.length s - pos) in
          Value.Str (String.sub s pos len)
      | [ s; start; len ] ->
          let s = Value.to_str_exn s
          and start = Value.to_int_exn start
          and len = Value.to_int_exn len in
          let pos = max 0 (start - 1) in
          let len = max 0 (min len (String.length s - pos)) in
          Value.Str (String.sub s pos len)
      | _ -> wrong_arity name)

let length = unary (fun v -> Value.Int (String.length (Value.to_str_exn v)))
let str f = unary (fun v -> Value.Str (f (Value.to_str_exn v)))

(* Every builtin, by lowercase name: one table answers both "is this a
   builtin?" and "which function?". *)
let table : (string, fn) Hashtbl.t =
  let h = Hashtbl.create 32 in
  List.iter
    (fun (name, f) -> Hashtbl.replace h name f)
    [
      ("current_date", fun ~now _ _ -> Value.Date now);
      ( "coalesce",
        fun ~now:_ _ args ->
          match List.find_opt (fun v -> not (Value.is_null v)) args with
          | Some v -> v
          | None -> Value.Null );
      (* The earlier and the later of two times (paper, Figure 4). *)
      ( "first_instance",
        binary (fun a b -> if Value.compare_total a b <= 0 then a else b) );
      ( "last_instance",
        binary (fun a b -> if Value.compare_total a b >= 0 then a else b) );
      ("least", fold_args (fun c -> c < 0));
      ("greatest", fold_args (fun c -> c > 0));
      ("nullif", binary (fun a b -> if Value.equal a b then Value.Null else a));
      ( "abs",
        unary (function
          | Value.Int i -> Value.Int (abs i)
          | Value.Float f -> Value.Float (Float.abs f)
          | v -> Value.type_error "ABS of %s" (Value.to_string v)) );
      ( "mod",
        binary (fun a b ->
            Value.Int (Value.to_int_exn a mod Value.to_int_exn b)) );
      ("char_length", length);
      ("length", length);
      ("upper", str String.uppercase_ascii);
      ("lower", str String.lowercase_ascii);
      ("substr", substr);
      ("substring", substr);
      ("trim", str String.trim);
      ("year", date_part (fun (y, _, _) -> y));
      ("month", date_part (fun (_, m, _) -> m));
      ("day", date_part (fun (_, _, d) -> d));
      ( "date_add_days",
        binary (fun d n ->
            Value.Date (Date.add_days (Value.to_date_exn d) (Value.to_int_exn n)))
      );
      ( "days_between",
        binary (fun a b -> Value.Int (Value.to_date_exn a - Value.to_date_exn b))
      );
      ( "round",
        strict (fun name args ->
            match args with
            | [ v ] -> Value.Float (Float.round (Value.to_float_exn v))
            | [ v; digits ] ->
                let scale = 10. ** float_of_int (Value.to_int_exn digits) in
                Value.Float
                  (Float.round (Value.to_float_exn v *. scale) /. scale)
            | _ -> wrong_arity name) );
    ];
  h

let find name = Hashtbl.find_opt table (lower name)
let is_builtin name = Hashtbl.mem table (lower name)

let call ~(now : Date.t) name args : Value.t =
  match find name with
  | Some f -> f ~now name args
  | None -> raise (Unknown_builtin name)
