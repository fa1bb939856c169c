(* Shared plumbing: command line, clocks, order statistics, the metric
   record every workload fills in, and the JSON it prints. *)

module Json = Serve.Json

type args = { workload : string; seed : int; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0. ->
      { workload; seed; seconds; trace }
  | _ -> usage ()

(* Monotonic seconds with nanosecond resolution (CLOCK_MONOTONIC):
   gettimeofday's microsecond steps are a tenth of a point SELECT on
   the small tables. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

(* Linear-interpolated quantile of an unsorted sample (the "type 7"
   definition); nan on an empty sample. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let h = q *. float_of_int (n - 1) in
      let lo = truncate h in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.

(* ------------------------------------------------------------------ *)
(* Operation accounting                                                *)
(* ------------------------------------------------------------------ *)

(* Every timed operation and every correctness check is attempted; a
   raised exception or a wrong answer is a failure.  Failures are
   reported on stderr (first few) so a red run says why. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }
let attempt () = tally.attempted <- tally.attempted + 1
let fail_reports = ref 0

let failure what =
  tally.failed <- tally.failed + 1;
  incr fail_reports;
  if !fail_reports <= 20 then Printf.eprintf "perfbench: FAILED %s\n%!" what

let check what ok =
  attempt ();
  if not ok then failure what

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Live major-heap data after a full collection: what the process holds
   on to (engines, caches, samples).  The peak heap size depends on when
   the collector happens to run and varies too much from run to run. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.

let json_metrics ms =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj
             [
               ( "value",
                 if Float.is_finite m.value then Json.Float m.value
                 else Json.Null );
               ("unit", Json.Str m.unit_);
             ] ))
       ms)

(* The configuration and data sizes go out on their own line before the
   result, so a flipped default shows up as a configuration diff. *)
let print_info (info : (string * Json.t) list) =
  print_endline (Json.to_string (Json.Obj (("info", Json.Bool true) :: info)))

let print_result ms =
  let bad = List.filter (fun m -> not (Float.is_finite m.value)) ms in
  List.iter (fun m -> failure ("metric not measured: " ^ m.name)) bad;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (tally.failed = 0));
            ("attempted", Json.Int (max 1 tally.attempted));
            ("failed", Json.Int tally.failed);
            ("metrics", json_metrics ms);
          ]))

(* ------------------------------------------------------------------ *)
(* Scratch directory for durable stores, inside the working tree        *)
(* ------------------------------------------------------------------ *)

let work_root = ".perfbench_work"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir name =
  if not (Sys.file_exists work_root) then Unix.mkdir work_root 0o755;
  let d = Filename.concat work_root name in
  rm_rf d;
  d
