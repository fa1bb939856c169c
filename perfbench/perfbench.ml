(* perfbench: the repository's benchmark.  One run measures one
   workload for a fixed number of seconds and prints, as its last line,
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics, or with --trace 1 the per-layer ones.  See README.md. *)

open Common

let main () =
  let args = parse_args () in
  let run =
    match args.workload with
    | "tpsm-xl-1m" -> Tpsm.run Data.ds1_xl ~name:args.workload ~days:30
    | "tpsm-ds3-1y" -> Tpsm.run Data.ds3_large ~name:args.workload ~days:365
    | "serve-mixed" -> Serving.run
    | w ->
        Printf.eprintf "perfbench: unknown workload %S\n" w;
        exit 2
  in
  match run args with
  | ms -> print_result ms
  | exception ex ->
      Printf.eprintf "perfbench: %s aborted: %s\n%!" args.workload
        (Printexc.to_string ex);
      exit 1

let () =
  match Sys.argv with
  | [| _; "--drive"; port; schedule; results |] ->
      (* the load generator's client process, started by Load.run *)
      Load.Proc.client_main ~port:(int_of_string port) ~schedule ~results
  | _ -> main ()
