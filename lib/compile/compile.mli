(** Plan compilation: closure-compiled SELECT evaluation.

    Cached physical plans become OCaml closure networks — column
    references pre-resolved to array offsets, comparators specialised
    for the int-backed date/interval fast path, cursor-free scan loops.
    Access paths come from the planner the interpreter also uses
    ({!Sqleval.Plan}), and the closures keep the interpreter's
    semantics, trace counters and guard charges, so compiled results
    are bit-identical to interpreted ones.  SELECT shapes the compiler does
    not cover fall back to the interpreter per evaluation; the
    [compile.compiled] / [compile.interpreted] trace counters expose the
    split per statement. *)

val install : unit -> unit
(** Register the compiler as {!Sqleval.Eval.select_compiler}.  The hook
    is consulted only when [options.compile] is on; installing is
    idempotent. *)

val prewarm : Sqleval.Catalog.t -> Sqlast.Ast.query -> unit
(** Compile the query's top-level SELECT into the catalog's shared plan
    store ahead of execution.  Read-view catalogs share their parent's
    store, so pre-warming on the parent hands every parallel worker a
    ready closure.  No-op for non-SELECT queries or when compilation is
    off. *)

val adjacent_periods :
  bt:Sqldb.Date.t ->
  et:Sqldb.Date.t ->
  Sqldb.Date.t list ->
  Sqldb.Value.t array list
(** The sort-adjacent step of the constant-period primitive, compiled:
    sorts the date points inside [(bt, et)] with [bt] and [et] as
    sentinels and pairs adjacent distinct points into ascending
    [[| Date a; Date b |]] rows — exactly the rows of the interpreted
    list-based variant. *)
