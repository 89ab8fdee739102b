(* The repository benchmark.

     bench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Builds the workload's fixture (several times: set-up time is the
   median), runs one closed-loop client for [seconds] of host time,
   verifies every answer, and prints one JSON line: the end-to-end
   metrics (--trace 0) or the per-layer metrics of a traced run
   (--trace 1).  Exits 1 when any answer fails verification. *)

open Common

let json_metrics ms =
  List.map
    (fun (name, v, unit) ->
      if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is not finite" name);
      Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
    ms
  |> String.concat ", "

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " Workloads.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed-phase host seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let trace = !trace = 1 in
  let o = Workloads.run !workload ~seed:!seed ~seconds:!seconds ~trace in
  if trace then begin
    let file = Printf.sprintf ".bench_out/spans-%s-%d.tsv" !workload !seed in
    Trace.write ~file;
    Trace.report ~file
  end;
  List.iter (fun p -> log "verification: %s" p) o.problems;
  let correct = o.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    o.attempted o.failed
    (json_metrics (Workloads.select ~trace o));
  exit (if correct then 0 else 1)
