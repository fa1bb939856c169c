(* In-memory table storage: a schema plus a growable vector of rows.
   A row is a [Value.t array] positionally matching the schema. *)

type row = Value.t array

(* [version] counts mutations (insert / delete / update / clear): any
   cached derived structure over the rows — notably the lazily-built
   interval indexes in [indexes] — is valid only for the version at
   which it was built.  [indexes] maps a (begin column, end column)
   index pair to its interval index and the version it reflects. *)
(* [obs] is the trace sink index maintenance reports into; tables start
   on the shared null sink and are pointed at an engine's sink when
   added to its database (see {!Database.set_observe}). *)
(* [undo] is the database-wide undo journal this table participates in
   (see {!Database.with_atomic}); tables start on the shared inert
   journal and are pointed at a database's journal when added to it.
   [undo_mark] / [undo_full] implement at-most-one journal entry per
   savepoint scope (see [log_undo]). *)
(* [wal] is the durability hook (see {!Wal_hook}): when set, every
   mutation also emits a logical event for the write-ahead log.  Like
   [obs] and [undo] it is propagated by the owning database; tables not
   yet registered anywhere stay silent (their rows travel inside the
   [Table_create] event when they are registered). *)
(* [share] is the copy-on-write state for MVCC snapshot publication
   (see {!freeze}):
   - [Live]: sole owner of the backing row array; mutate in place.
   - [Shared]: a published frozen snapshot still references the backing
     array; the first mutation copies the array ({!Vec.unshare}) and
     returns to [Live], so readers of the snapshot never observe a torn
     mid-statement state.
   - [Frozen]: an immutable published snapshot (or a read view of one);
     any mutation attempt is a bug in write/read classification and
     raises a typed internal error instead of corrupting every reader. *)
type share = Live | Shared | Frozen

type t = {
  schema : Schema.t;
  rows : row Vec.t;
  mutable version : int;
  indexes : (int * int, int * row Interval_index.t) Hashtbl.t;
  mutable obs : Trace.t;
  mutable undo : Undo_log.t;
  mutable undo_mark : int;
  mutable undo_full : bool;
  mutable wal : Wal_hook.t option;
  mutable share : share;
}

let create schema =
  {
    schema;
    rows = Vec.create ();
    version = 0;
    indexes = Hashtbl.create 2;
    obs = Trace.null;
    undo = Undo_log.null;
    undo_mark = 0;
    undo_full = false;
    wal = None;
    share = Live;
  }

let set_observe t obs = t.obs <- obs
let set_undo t undo = t.undo <- undo
let set_wal t wal = t.wal <- wal

(* Journal an undo entry for the mutation about to happen — at most one
   per savepoint scope per table.  A destructive mutation snapshots the
   live row-pointer array (shallow: sound because every mutator copies a
   row before modifying it); an append-only mutation logs a cheaper
   truncate-to-previous-length entry, upgraded to a full snapshot if a
   destructive mutation follows in the same scope (rollback then runs the
   snapshot restore first, newest-first, and the truncate second, which
   yields the original prefix).  Undo *bumps* [version] instead of
   restoring it so a rolled-back mutation can never revalidate a stale
   interval index or cached plan. *)
let log_undo t ~full =
  if Undo_log.is_active t.undo then begin
    let snapshot_entry () =
      let saved = Vec.snapshot t.rows in
      Undo_log.log t.undo (fun () ->
          Vec.restore t.rows saved;
          t.version <- t.version + 1)
    in
    let mark = Undo_log.serial t.undo in
    if t.undo_mark < mark then begin
      t.undo_mark <- mark;
      t.undo_full <- full;
      if full then snapshot_entry ()
      else begin
        let len = Vec.length t.rows in
        Undo_log.log t.undo (fun () ->
            Vec.truncate t.rows len;
            t.version <- t.version + 1)
      end
    end
    else if full && not t.undo_full then begin
      t.undo_full <- true;
      snapshot_entry ()
    end
  end

(* Every mutator passes through here: copy-on-write check, fault
   injection point, undo journaling, then the version bump that
   invalidates derived caches. *)
let touch ?(append = false) t =
  (match t.share with
  | Live -> ()
  | Shared ->
      Vec.unshare t.rows;
      t.share <- Live
  | Frozen ->
      Taupsm_error.raise_error Taupsm_error.Internal
        "mutation of frozen snapshot table %s" t.schema.Schema.name);
  Fault.hit Fault.Table_mutation;
  log_undo t ~full:(not append);
  t.version <- t.version + 1

let of_rows schema rows =
  let t = create schema in
  List.iter (fun r -> Vec.push t.rows r) rows;
  t

let schema t = t.schema
let name t = t.schema.Schema.name
let row_count t = Vec.length t.rows

let check_row t (r : row) =
  let expected = Schema.arity t.schema in
  if Array.length r <> expected then
    invalid_arg
      (Printf.sprintf "Table %s: row arity %d, expected %d" (name t)
         (Array.length r) expected)

let insert t r =
  check_row t r;
  touch ~append:true t;
  (match t.wal with
  | None -> ()
  | Some w -> w.Wal_hook.emit (Wal_hook.Row_insert (name t, Array.copy r)));
  Vec.push t.rows r

let iter f t = Vec.iter f t.rows
let fold f init t = Vec.fold_left f init t.rows
let to_list t = Vec.to_list t.rows

(* Delete rows satisfying [p]; returns the number deleted.  With a WAL
   hook attached the removed positions (pre-delete numbering) are
   emitted, so recovery can replay the deletion positionally without
   re-evaluating the predicate. *)
let delete_where p t =
  let before = Vec.length t.rows in
  touch t;
  (match t.wal with
  | None -> Vec.filter_in_place (fun r -> not (p r)) t.rows
  | Some w ->
      let removed = ref [] in
      let i = ref (-1) in
      Vec.filter_in_place
        (fun r ->
          incr i;
          let gone = p r in
          if gone then removed := !i :: !removed;
          not gone)
        t.rows;
      if !removed <> [] then
        w.Wal_hook.emit
          (Wal_hook.Rows_delete
             (name t, Array.of_list (List.rev !removed))));
  before - Vec.length t.rows

(* Update rows satisfying [p] with [f]; returns the number updated.
   With a WAL hook attached the (position, new row) pairs are emitted;
   positions are stable because updates never reorder the vector. *)
let update_where p f t =
  let n = ref 0 in
  touch t;
  let changed = ref [] in
  let log = t.wal <> None in
  Vec.iteri
    (fun i r ->
      if p r then begin
        incr n;
        let r' = f r in
        if log then changed := (i, Array.copy r') :: !changed;
        Vec.set t.rows i r'
      end)
    t.rows;
  (match t.wal with
  | Some w when !changed <> [] ->
      w.Wal_hook.emit
        (Wal_hook.Rows_update (name t, Array.of_list (List.rev !changed)))
  | _ -> ());
  !n

let clear t =
  touch t;
  (match t.wal with
  | None -> ()
  | Some w -> w.Wal_hook.emit (Wal_hook.Table_clear (name t)));
  Vec.clear t.rows

let get_value t r cname = r.(Schema.column_index_exn t.schema cname)

(* The valid-time period of a row in a temporal table. *)
let row_period t (r : row) =
  let b = Value.to_date_exn r.(Schema.begin_index t.schema) in
  let e = Value.to_date_exn r.(Schema.end_index t.schema) in
  Period.make ~begin_:b ~end_:e

(* All valid-time periods in a temporal table. *)
let periods t = fold (fun acc r -> row_period t r :: acc) [] t

let copy t =
  let t' = create t.schema in
  iter (fun r -> Vec.push t'.rows (Array.copy r)) t;
  t'

(* A read-only view over this table's live storage: the row vector and
   schema are shared (no per-row copy), so the view is sound only while
   the original is not mutated.  Observation, undo and WAL wiring are
   severed — a view must never journal into or emit events for the
   original — and the index cache is a private copy: already-built
   interval indexes (immutable once built) are shared, while any index a
   view builds lazily lands in its own table, never racing with siblings
   reading the original's cache. *)
let read_view t =
  {
    schema = t.schema;
    rows = t.rows;
    version = t.version;
    indexes = Hashtbl.copy t.indexes;
    obs = Trace.null;
    undo = Undo_log.null;
    undo_mark = 0;
    undo_full = false;
    wal = None;
    (* A view of a frozen snapshot is itself frozen; a view of a live
       table keeps the live table's CoW discipline out of the picture —
       the view shares the backing array, so mutating it would corrupt
       the original.  Mark it frozen too: read views are read-only by
       contract, and the typed error beats silent corruption. *)
    share = Frozen;
  }

(* Publish an immutable snapshot of this table and switch the live table
   to copy-on-write.  The frozen record shares the current backing row
   array and a copy of the index cache (already-built indexes are
   immutable once built); the live table is marked [Shared] so its next
   mutation privatizes the array first.  O(1) in the number of rows.
   The caller must establish a happens-before edge (e.g. an [Atomic.set]
   of the published catalog) before handing the frozen table to another
   domain. *)
let freeze t =
  let fr =
    {
      schema = t.schema;
      rows = Vec.shallow t.rows;
      version = t.version;
      indexes = Hashtbl.copy t.indexes;
      obs = Trace.null;
      undo = Undo_log.null;
      undo_mark = 0;
      undo_full = false;
      wal = None;
      share = Frozen;
    }
  in
  (match t.share with Frozen -> () | Live | Shared -> t.share <- Shared);
  fr

(* ------------------------------------------------------------------ *)
(* Interval-indexed period-overlap scans                               *)
(* ------------------------------------------------------------------ *)

(* The interval index over the (bi, ei) date column pair, built lazily
   and rebuilt whenever the table has been mutated since. *)
let interval_index t ~bi ~ei =
  match Hashtbl.find_opt t.indexes (bi, ei) with
  | Some (v, idx) when v = t.version -> idx
  | stale ->
      Fault.hit Fault.Index_rebuild;
      let snapshot = Array.make (Vec.length t.rows) [||] in
      Vec.iteri (fun i r -> snapshot.(i) <- r) t.rows;
      let extract (r : row) =
        match (r.(bi), r.(ei)) with
        | Value.Date b, Value.Date e -> Some (b, e)
        | _ -> None
      in
      let idx = Interval_index.build ~extract snapshot in
      Hashtbl.replace t.indexes (bi, ei) (t.version, idx);
      if Trace.enabled t.obs then begin
        (* a stale entry means a previous build was invalidated by a
           mutation; a missing one is the first (lazy) build *)
        let kind = if stale = None then "index.build" else "index.rebuild" in
        Trace.count t.obs kind 1;
        Trace.event t.obs "index"
          (Printf.sprintf "%s table=%s cols=(%d,%d) rows=%d residuals=%d"
             (if stale = None then "build" else "rebuild")
             (name t) bi ei (row_count t)
             (Interval_index.residual_count idx))
      end;
      idx

(* Rows whose [bi]/[ei] period overlaps [begin_, end_) under the
   half-open test (begin < end_ AND end > begin_), plus any rows whose
   timestamp columns are not dates — a superset safe for exact
   re-filtering — in insertion order.  O(log n + k) per query against
   the cached index when rows were appended in time order. *)
let overlapping t ~bi ~ei ~begin_ ~end_ =
  Interval_index.overlapping (interval_index t ~bi ~ei) ~begin_ ~end_

(* Rows whose (bi, ei) columns are not both dates.  When zero, every
   query result of {!overlapping} satisfies the overlap test exactly
   (no unchecked residuals), so callers may treat the window bounds as
   already-enforced predicates. *)
let overlap_residuals t ~bi ~ei =
  Interval_index.residual_count (interval_index t ~bi ~ei)

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@ %d row(s)@]" Schema.pp t.schema (row_count t)
