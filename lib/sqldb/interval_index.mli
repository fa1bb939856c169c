(** A static interval index over half-open [int] intervals [[b, e)]:
    a segment tree over the items in their original order, each node
    holding the minimum begin and maximum end of its range, answering
    period-overlap ("stabbing") queries in O(log n + k) on tables
    appended in time order instead of O(n).

    The index is built once from a snapshot of the items and is
    immutable; callers are responsible for rebuilding after mutation
    (see {!Table}'s version counter).  Items whose interval cannot be
    extracted ([extract] returns [None]) are residual leaves that every
    query returns, so the result is always a superset of the
    matching items and an exact re-check downstream stays cheap and
    safe.

    All query results preserve the original item order (the order of
    the array given to {!build}), so an indexed scan is
    order-indistinguishable from a filtered full scan. *)

type 'a t

val build : extract:('a -> (int * int) option) -> 'a array -> 'a t
(** [build ~extract items] indexes every item for which [extract]
    returns [Some (begin_, end_)].  Intervals are half-open; empty and
    inverted intervals ([end_ <= begin_]) are indexed as given and
    match exactly when the raw overlap test holds (e.g. a probe
    strictly containing an empty interval's point matches it) — exact
    period semantics are the caller's re-check. *)

val length : 'a t -> int
(** Total number of items (indexed + residual). *)

val residual_count : 'a t -> int
(** Items for which [extract] returned [None]; returned by every
    query. *)

val overlapping : 'a t -> begin_:int -> end_:int -> 'a list
(** Items whose interval [[b, e)] satisfies [b < end_ && e > begin_]
    (the half-open overlap test), plus all residual items, in original
    order.  [overlapping ~begin_:min_int ~end_:max_int] returns every
    item. *)

val stabbing : 'a t -> at:int -> 'a list
(** Items valid at the instant [at] ([b <= at < e]), plus residuals:
    [overlapping ~begin_:at ~end_:(at + 1)]. *)
