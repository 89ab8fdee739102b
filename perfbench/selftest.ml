(* Determinism self-check, run by [dune runtest] at a small size: two
   runs of a workload with the same seed give identical deterministic
   metrics (simulated times, amplification, per-layer counts), and a
   different seed changes the generated query and document streams.
   Failures go to standard output; the runs' progress to standard
   error, which the test rule keeps in selftest.log. *)

let cold =
  {
    Workloads.search_cold with
    Search.model = Collections.Presets.tipster ~scale:0.004 ();
    episode = 300;
  }

let hot =
  {
    Workloads.search_hot with
    Search.model = Collections.Presets.cacm ~scale:0.1 ();
    traffic = Search.Zipf { pool = 300; skew = 1.0; warmup = 300 };
    episode = 600;
  }

let ingest =
  {
    Serve.initial_docs = 150;
    round_docs = 24;
    round_queries = 12;
    rounds = 3;
  }

let deterministic_e2e = [ "sim_query_p50_ms"; "sim_query_p99_ms"; "sim_capacity_qps"; "space_amp" ]

let deterministic_layers =
  [
    "result_cache.hit_rate";
    "dictionary.lookups_per_query";
    "planner.plan_exhaustive";
    "planner.plan_maxscore";
    "planner.plan_intersect";
    "store.fetches_per_query";
    "store.sim_fetch_ms";
    "buffer_pool.hit_rate";
    "buffer_pool.evictions";
    "vfs.disk_inputs_per_query";
    "vfs.bytes_read_per_query";
    "vfs.os_cache_hit_rate";
    "vfs.disk_outputs";
    "vfs.bytes_written";
    "postings.decoded_per_query";
    "postings.bytes_decoded_per_query";
    "block_cache.hit_rate";
    "infnet.postings_scored";
    "infnet.seeks";
    "ingest.sim_ack_p99_ms";
    "ingest.write_amp";
    "ingest.seals";
    "ingest.folded_bytes";
    "live_index.file_bytes";
    "epoch.publishes";
  ]

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let values names ~trace o =
  Workloads.select ~trace o |> List.filter (fun (n, _, _) -> List.mem n names)

(* [seconds:0.0] runs one episode; [seconds:0.2] several, which also
   exercises the reset between episodes and the verification of later
   episodes. *)
let same_seed name (run : seed:int -> seconds:float -> trace:bool -> Common.outcome) =
  let a = run ~seed:1 ~seconds:0.0 ~trace:false and b = run ~seed:1 ~seconds:0.0 ~trace:false in
  check (name ^ ": untraced run verifies") (a.Common.failed = 0);
  check (name ^ ": deterministic end-to-end metrics repeat")
    (values deterministic_e2e ~trace:false a = values deterministic_e2e ~trace:false b);
  let c = run ~seed:1 ~seconds:0.2 ~trace:false in
  check (name ^ ": a run of several episodes verifies") (c.Common.failed = 0 && c.Common.attempted > a.Common.attempted);
  check (name ^ ": later episodes leave the deterministic metrics alone")
    (values deterministic_e2e ~trace:false a = values deterministic_e2e ~trace:false c);
  let a = run ~seed:1 ~seconds:0.0 ~trace:true and b = run ~seed:1 ~seconds:0.0 ~trace:true in
  check (name ^ ": traced run verifies") (a.Common.failed = 0);
  List.iter2
    (fun (n, x, _) (_, y, _) ->
      check (Printf.sprintf "%s: %s repeats (%.17g vs %.17g)" name n x y) (Float.equal x y))
    (values deterministic_layers ~trace:true a)
    (values deterministic_layers ~trace:true b)

let take n next = List.init n (fun _ -> next ())

let () =
  let search cfg ~seed ~seconds ~trace = Search.run cfg ~seed ~seconds ~reps:1 ~trace in
  same_seed "search-cold" (search cold);
  same_seed "search-hot" (search hot);
  same_seed "ingest-serve" (fun ~seed ~seconds ~trace -> Serve.run ingest ~seed ~seconds ~reps:1 ~trace);
  let queries cfg seed = take 50 (Search.stream cfg ~seed).Search.next in
  check "search-cold: the seed changes the query stream" (queries cold 1 <> queries cold 2);
  check "search-hot: the seed changes the query stream" (queries hot 1 <> queries hot 2);
  check "search-cold: a seed repeats its query stream" (queries cold 3 = queries cold 3);
  check "ingest-serve: the seed changes the document stream"
    (take 5 (Serve.doc_stream ~seed:1) <> take 5 (Serve.doc_stream ~seed:2));
  check "ingest-serve: the seed changes the query stream"
    (take 20 (Serve.query_stream ~seed:1) <> take 20 (Serve.query_stream ~seed:2));
  if !failures > 0 then exit 1;
  print_endline "perfbench selftest: ok"
