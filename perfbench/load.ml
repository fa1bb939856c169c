(* Open-loop load over the serving protocol: the server runs in this
   process, and a client process drives two connections at a fixed
   offered rate.  Connection A carries every write and some reads;
   connection B reads only.  Because A is the only writer, a read on A
   sees exactly the writes A sent before it. *)

open Common
open Cells
module Client = Serve.Client
module Server = Serve.Server

let offered_rate = 150.  (* requests per second, both connections *)
let workers = 2  (* one per connection *)
let lane = Serve.Commit_lane.default_config

(* Of connection A's requests, 2 in 3 are writes: about 1,000 writes in
   20 seconds. *)
let is_write i = i mod 3 <> 2

type op =
  | Read of { text : string; arm : arm; sql : string }
      (* [text]: the statement before literals vary; latency is grouped
         by (text, arm) *)
  | Write of { kind : Data.write_kind; sql : string }

type req = {
  op : op;
  due : float;
  mutable sent : float;
  mutable recv : float;
  mutable resp : Json.t option;
}

type phase = { a : req array; b : req array }

(* Current point SELECTs ([select] plus "WHERE id = k", k in 1..n),
   ids drawn from the seed. *)
let point_sqls ~seed ~select ~n =
  let rng = Taubench.Prng.create ~seed:(seed + 104729) in
  fun () -> Printf.sprintf "%s WHERE id = %d" select (Taubench.Prng.int_range rng 1 n)

let item_select = "SELECT title, price, in_stock FROM item"

let point_reads ~seed ~n_items =
  let next = point_sqls ~seed ~select:item_select ~n:n_items in
  fun () -> Read { text = "point"; arm = Auto; sql = next () }

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

type server = { srv : Server.t; handle : Thread.t * int ref }

(* `taupsm_cli serve --sync group`: the store's WAL policy is Off and
   the commit lane issues one fsync per batch. *)
let start e persist =
  let cfg =
    {
      Server.default_config with
      port = 0;
      workers;
      stmt_deadline = Some 60.;
      drain_deadline = 30.;
      lane;
    }
  in
  let srv = Server.create ~cfg ~engine:e ~persist () in
  { srv; handle = Server.run_async srv }

let port s = Server.port s.srv

(* Draining also syncs and detaches the store. *)
let stop s =
  Server.request_drain s.srv;
  check "server drained cleanly" (Server.wait s.handle = 0)

let stats s =
  let c = Client.connect ~port:(port s) () in
  let j = Client.stats c in
  Client.close c;
  Option.value ~default:(Json.Obj []) (Json.member "stats" j)

let stat j path =
  let rec go j = function
    | [ k ] -> Json.member_float j k
    | k :: rest -> Option.bind (Json.member k j) (fun j -> go j rest)
    | [] -> None
  in
  Option.value ~default:nan (go j path)

let config_json =
  [
    ("sync", Json.Str "group");
    ("wal_policy", Json.Str "off");
    ("workers", Json.Int workers);
    ( "lane",
      Json.Obj
        [
          ("queue_cap", Json.Int lane.Serve.Commit_lane.queue_cap);
          ("max_batch", Json.Int lane.Serve.Commit_lane.max_batch);
          ("batch_window", Json.Float lane.Serve.Commit_lane.batch_window);
          ("sync_each", Json.Bool lane.Serve.Commit_lane.sync_each);
        ] );
    ("offered_rate_per_s", Json.Float offered_rate);
    ("loop", Json.Str "open, 2 connections (A: reads + all writes, B: reads)");
  ]

(* ------------------------------------------------------------------ *)
(* Load generator                                                      *)
(* ------------------------------------------------------------------ *)

let request_line id op =
  let fields =
    match op with
    | Read { sql; arm = Max; _ } -> [ ("sql", Json.Str sql); ("strategy", Json.Str "max") ]
    | Read { sql; arm = Perst; _ } ->
        [ ("sql", Json.Str sql); ("strategy", Json.Str "perst") ]
    | Read { sql; arm = Auto; _ } | Write { sql; _ } -> [ ("sql", Json.Str sql) ]
  in
  Json.to_string
    (Json.Obj (("id", Json.Int id) :: ("op", Json.Str "stmt") :: fields))
  ^ "\n"

(* The client is a separate process (this executable with --drive), so
   its allocation and scheduling do not stop the server's domains: in
   OCaml 5 every minor collection is a stop-the-world across all domains
   of a process.

   Each connection keeps at most one request outstanding: a request is
   written at its due time, or as soon as the previous reply arrives if
   that is later, and its latency counts from the due time, so a stall
   is charged to every request it delays.  (With several requests in
   flight, the server's un-ACKed replies are held back by Nagle's
   algorithm until the client's next request carries the ACK, and every
   reply arrives one schedule interval late.)

   Schedule file: one line per request, "<conn>\t<due>\t<request>", due
   in seconds from the start.  Result file: one line per request, in
   schedule order, "<sent>\t<recv>\t<reply>", on the same clock. *)
module Proc = struct
  type slot = {
    due : float;
    line : string;
    mutable sent : float;
    mutable recv : float;
    mutable reply : string;
  }

  type conn = {
    c : Client.t;
    slots : slot array;
    mutable next_send : int;
    mutable next_recv : int;
    mutable acc : string;
  }

  let drive ~port (schedules : slot array list) =
    let chunk = Bytes.create 65536 in
    let conns =
      List.map
        (fun slots ->
          let c = Client.connect ~port () in
          Unix.setsockopt c.Client.fd Unix.TCP_NODELAY true;
          { c; slots; next_send = 0; next_recv = 0; acc = c.Client.acc })
        schedules
    in
    let start = now () +. 0.05 in
    let idle k = k.next_send = k.next_recv && k.next_send < Array.length k.slots in
    let pending k = k.next_recv < Array.length k.slots in
    let rec take_lines k =
      match String.index_opt k.acc '\n' with
      | Some i when pending k ->
          let r = k.slots.(k.next_recv) in
          r.recv <- now () -. start;
          r.reply <- String.sub k.acc 0 i;
          k.acc <- String.sub k.acc (i + 1) (String.length k.acc - i - 1);
          k.next_recv <- k.next_recv + 1;
          take_lines k
      | _ -> ()
    in
    let rec loop () =
      let t = now () -. start in
      List.iter
        (fun k ->
          if idle k && k.slots.(k.next_send).due <= t then begin
            let r = k.slots.(k.next_send) in
            r.sent <- now () -. start;
            Client.write_all k.c.Client.fd r.line 0 (String.length r.line);
            k.next_send <- k.next_send + 1
          end)
        conns;
      let waiting = List.filter pending conns in
      if waiting <> [] then begin
        let next_due =
          List.fold_left
            (fun m k -> if idle k then min m k.slots.(k.next_send).due else m)
            (t +. 0.05) conns
        in
        let fds = List.map (fun k -> k.c.Client.fd) waiting in
        (match
           Unix.select fds [] [] (Float.max 0. (next_due -. (now () -. start)))
         with
        | readable, _, _ ->
            List.iter
              (fun k ->
                if List.mem k.c.Client.fd readable then
                  match Unix.read k.c.Client.fd chunk 0 (Bytes.length chunk) with
                  | 0 -> failwith "server closed a benchmark connection"
                  | n ->
                      k.acc <- k.acc ^ Bytes.sub_string chunk 0 n;
                      take_lines k)
              waiting
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
      end
    in
    loop ();
    List.iter (fun k -> Client.close k.c) conns

  (* The --drive entry point: read the schedule, drive, write results. *)
  let client_main ~port ~schedule ~results =
    let lines = In_channel.with_open_text schedule In_channel.input_all in
    let per_conn = Hashtbl.create 2 in
    String.split_on_char '\n' lines
    |> List.iter (fun l ->
           match String.split_on_char '\t' l with
           | [ k; due; line ] ->
               let slot =
                 { due = float_of_string due; line = line ^ "\n"; sent = nan; recv = nan; reply = "" }
               in
               Hashtbl.replace per_conn k
                 (slot :: Option.value ~default:[] (Hashtbl.find_opt per_conn k))
           | _ -> ());
    let schedules =
      List.map
        (fun k -> Array.of_list (List.rev (Hashtbl.find per_conn k)))
        (List.sort compare (List.of_seq (Hashtbl.to_seq_keys per_conn)))
    in
    drive ~port schedules;
    Out_channel.with_open_text results (fun oc ->
        List.iter
          (Array.iter (fun r ->
               Printf.fprintf oc "%.9f\t%.9f\t%s\n" r.sent r.recv r.reply))
          schedules)
end

(* Both connections' schedules for [seconds]; B is offset by half an
   interval so the two do not send in lockstep.  Runs the client
   process and waits for it. *)
let run s ~next_read ~next_write ~seconds =
  let per_conn = offered_rate /. 2. in
  let n = max 1 (int_of_float (seconds *. per_conn)) in
  let mk ~offset ~writer =
    Array.init n (fun i ->
        let op =
          if writer && is_write i then
            let kind, sql = next_write () in
            Write { kind; sql }
          else next_read ()
        in
        {
          op;
          due = (float_of_int i +. offset) /. per_conn;
          sent = nan;
          recv = nan;
          resp = None;
        })
  in
  let a = mk ~offset:0. ~writer:true in
  let b = mk ~offset:0.5 ~writer:false in
  let dir = fresh_dir "client" in
  Unix.mkdir dir 0o755;
  let schedule = Filename.concat dir "schedule" in
  let results = Filename.concat dir "results" in
  Out_channel.with_open_text schedule (fun oc ->
      List.iteri
        (fun k reqs ->
          Array.iteri
            (fun i r ->
              Printf.fprintf oc "%d\t%.9f\t%s" k r.due (request_line (i + 1) r.op))
            reqs)
        [ a; b ]);
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--drive"; string_of_int (port s); schedule; results |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "benchmark client process failed");
  let replies =
    In_channel.with_open_text results In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> Array.of_list
  in
  List.iteri
    (fun k reqs ->
      Array.iteri
        (fun i (r : req) ->
          match String.split_on_char '\t' replies.((k * n) + i) with
          | sent :: recv :: reply ->
              r.sent <- float_of_string sent;
              r.recv <- float_of_string recv;
              r.resp <- Result.to_option (Json.parse (String.concat "\t" reply))
          | _ -> ())
        reqs)
    [ a; b ];
  rm_rf dir;
  { a; b }

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let all p = Array.to_list p.a @ Array.to_list p.b
let ok r = match r.resp with Some j -> Client.ok j | None -> false
let latency r = r.recv -. r.due
let sql_of r = match r.op with Read { sql; _ } | Write { sql; _ } -> sql

(* Every request is attempted; an error reply is a failure. *)
let count_outcomes p =
  List.iter
    (fun r ->
      attempt ();
      if not (ok r) then
        failure
          (Printf.sprintf "served %s: %s" (sql_of r)
             (match r.resp with Some j -> Json.to_string j | None -> "no reply")))
    (all p)

(* Answered requests only: failures are counted separately. *)
let reads p =
  List.filter (fun r -> ok r && match r.op with Read _ -> true | _ -> false) (all p)

let writes ?kind p =
  List.filter
    (fun r ->
      ok r
      &&
      match r.op with
      | Write { kind = k; _ } -> kind = None || kind = Some k
      | Read _ -> false)
    (all p)

let ms x = 1000. *. x

(* The serving layer's own figures: server-side latency from the stats
   op, the wire's share of a read, how late the generator ran, and the
   commit lane's batching over the phase. *)
let layer_metrics ~before ~after p =
  let delta path = stat after path -. stat before path in
  (* each reply carries the server's own seconds for the statement *)
  let wire =
    List.filter_map
      (fun r ->
        Option.map
          (fun server -> r.recv -. r.sent -. server)
          (Option.bind r.resp (fun j -> Json.member_float j "seconds")))
      (reads p)
  in
  [
    metric "serve.batch_mean" "count"
      (delta [ "lane"; "committed" ] /. delta [ "lane"; "batches" ]);
    metric "serve.server_read_p50_ms" "ms"
      (ms (stat after [ "read_latency"; "p50_seconds" ]));
    metric "serve.server_write_p50_ms" "ms"
      (ms (stat after [ "write_latency"; "p50_seconds" ]));
    metric "serve.wire_read_p50_ms" "ms" (ms (median wire));
    metric "serve.gen_lateness_p99_ms" "ms"
      (ms (quantile (List.map (fun r -> r.sent -. r.due) (all p)) 0.99));
  ]
