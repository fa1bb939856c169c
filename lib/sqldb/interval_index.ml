(* A static interval index: a segment tree over the items in their
   original (scan) order, each node holding the minimum interval begin
   and the maximum interval end of its range.

   A query [overlapping ~begin_ ~end_] must report items with
   b < end_ && e > begin_.  It descends only into nodes whose
   (min begin, max end) admits such an item, so a subtree of rows that
   all begin after the window or all end before it costs O(1).  The
   descent visits children right to left and conses each hit, so the
   result comes out in scan order without a sort.  On tables appended
   in time order, neighbouring rows have neighbouring periods and a
   query costs O(log n + k); on an arbitrary layout the pruning only
   gets weaker, never wrong.

   Items with no extractable interval (residuals) are leaves with
   (min_int, max_int), so every query reaches them: results are
   supersets suitable for exact re-filtering.

   Layout: the node of range [l, r) with r - l > 1 splits at
   m = (l + r) / 2; its left child follows it and its right child
   follows the left subtree's 2 (m - l) - 1 nodes, so n items take
   exactly 2n - 1 nodes. *)

type 'a t = {
  items : 'a array;  (* in original order *)
  lo : int array;  (* min begin per node *)
  hi : int array;  (* max end per node *)
  residuals : int;
}

let length t = Array.length t.items
let residual_count t = t.residuals

let build ~extract (items : 'a array) : 'a t =
  let n = Array.length items in
  let lo = Array.make (max 0 ((2 * n) - 1)) 0 in
  let hi = Array.make (max 0 ((2 * n) - 1)) 0 in
  let residuals = ref 0 in
  let rec fill node l r =
    if r - l = 1 then (
      match extract items.(l) with
      | Some (b, e) ->
          lo.(node) <- b;
          hi.(node) <- e
      | None ->
          incr residuals;
          lo.(node) <- min_int;
          hi.(node) <- max_int)
    else begin
      let m = (l + r) / 2 in
      let left = node + 1 and right = node + (2 * (m - l)) in
      fill left l m;
      fill right m r;
      lo.(node) <- min lo.(left) lo.(right);
      hi.(node) <- max hi.(left) hi.(right)
    end
  in
  if n > 0 then fill 0 0 n;
  { items; lo; hi; residuals = !residuals }

let overlapping t ~begin_ ~end_ : 'a list =
  let rec go node l r acc =
    if t.lo.(node) < end_ && t.hi.(node) > begin_ then
      if r - l = 1 then t.items.(l) :: acc
      else
        let m = (l + r) / 2 in
        go (node + 1) l m (go (node + (2 * (m - l))) m r acc)
    else acc
  in
  let n = Array.length t.items in
  if n = 0 then [] else go 0 0 n []

let stabbing t ~at = overlapping t ~begin_:at ~end_:(at + 1)
