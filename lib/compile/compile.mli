(** Plan compilation: expression lowering plus a plan store.

    A SELECT over base tables is planned once per plan token by the
    planner the interpreter also uses ({!Sqleval.Plan}); its expressions
    are lowered into closures — column references pre-resolved to array
    offsets, PSM variables and outer columns read from per-run slots,
    stored functions called directly, comparators specialised for the
    int-backed date/interval fast path — and the lowered plan is
    cached.  Running it goes through
    the interpreter's own executor ({!Sqleval.Eval.run_plan}) over
    cross-run row and hash caches, so compiled results, trace counters
    and guard charges are the interpreter's by construction.  SELECT
    shapes the compiler does not cover fall back to the interpreter per
    evaluation; the [compile.compiled] / [compile.interpreted] trace
    counters expose the split per statement, and [compile.reentries]
    the per-row evaluations that still call back into the interpreter. *)

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
