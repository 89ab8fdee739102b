(* The benchmark's workloads and its metric catalogue.  Sizes, stated
   against the caches they exercise, are recorded in perfbench/README.md.
   The highest percentile a sample of [n] supports with at least ten
   samples beyond it is 100 * (1 - 10/n), so every episode holds at
   least 1,000 latency samples (searches and, for ingest-serve, acks):
   its p99 is supported. *)

let search_cold =
  {
    Search.model = Collections.Presets.tipster ~scale:0.04 ();
    whole_file_buffers = false;
    block_cache_bytes = 0;
    traffic = Search.Unique;
    episode = 10_000;
  }

let search_hot =
  {
    Search.model = Collections.Presets.cacm ();
    whole_file_buffers = true;
    block_cache_bytes = 16 lsl 20;
    traffic = Search.Zipf { pool = 5000; skew = 1.0; warmup = 10_000 };
    episode = 30_000;
  }

let ingest_serve =
  {
    Serve.initial_docs = 800;
    round_docs = 160;
    round_queries = 160;
    rounds = 8;
  }

let names = [ "search-cold"; "search-hot"; "ingest-serve" ]

(* Set-ups per run; setup_s is their median. *)
let reps = 5

let run name ~seed ~seconds ~trace =
  match name with
  | "search-cold" -> Search.run search_cold ~seed ~seconds ~reps ~trace
  | "search-hot" -> Search.run search_hot ~seed ~seconds ~reps ~trace
  | "ingest-serve" -> Serve.run ingest_serve ~seed ~seconds ~reps ~trace
  | other -> failwith ("unknown workload " ^ other)

(* Every run prints exactly these names: the end-to-end metrics
   (untraced runs) ... *)
let end_to_end =
  [
    ("setup_s", "s");
    ("query_qps", "1/s");
    ("query_p50_ms", "ms");
    ("query_p99_ms", "ms");
    ("sim_query_p50_ms", "ms");
    ("sim_query_p99_ms", "ms");
    ("sim_capacity_qps", "1/s");
    ("ok_frac", "ratio");
    ("space_amp", "ratio");
    ("heap_peak_mb", "MB");
  ]

(* ... and the per-layer metrics (traced runs).  A layer a workload does
   not cross reports 0. *)
let per_layer =
  [
    ("query.parse_us", "us");
    ("result_cache.hit_rate", "ratio");
    ("result_cache.evictions", "count");
    ("dictionary.find_us", "us");
    ("dictionary.lookups_per_query", "count");
    ("planner.decide_us", "us");
    ("planner.est_bytes_ratio", "ratio");
    ("planner.plan_exhaustive", "count");
    ("planner.plan_maxscore", "count");
    ("planner.plan_intersect", "count");
    ("store.fetch_us", "us");
    ("store.fetches_per_query", "count");
    ("store.sim_fetch_ms", "ms");
    ("buffer_pool.hit_rate", "ratio");
    ("buffer_pool.evictions", "count");
    ("vfs.disk_inputs_per_query", "count");
    ("vfs.bytes_read_per_query", "bytes");
    ("vfs.os_cache_hit_rate", "ratio");
    ("vfs.disk_outputs", "count");
    ("vfs.bytes_written", "bytes");
    ("postings.decode_us", "us");
    ("postings.decoded_per_query", "count");
    ("postings.bytes_decoded_per_query", "bytes");
    ("block_cache.hit_rate", "ratio");
    ("block_cache.evictions", "count");
    ("infnet.eval_us", "us");
    ("infnet.postings_scored", "count");
    ("infnet.blocks_skipped", "count");
    ("infnet.seeks", "count");
    ("frontend.self_us", "us");
    ("frontend.degraded", "count");
    ("frontend.hedged", "count");
    ("frontend.unaccounted_frac", "ratio");
    ("ingest.ack_p50_ms", "ms");
    ("ingest.ack_p99_ms", "ms");
    ("ingest.sim_ack_p99_ms", "ms");
    ("ingest.docs_per_s", "1/s");
    ("ingest.write_amp", "ratio");
    ("ingest.add_us", "us");
    ("ingest.seals", "count");
    ("ingest.overloads", "count");
    ("ingest.merge_ms", "ms");
    ("ingest.folded_bytes", "bytes");
    ("ingest.search_us", "us");
    ("live_index.gc_ms", "ms");
    ("live_index.reclaimable_bytes", "bytes");
    ("live_index.file_bytes", "bytes");
    ("epoch.publishes", "count");
    ("runtime.minor_gcs", "count");
    ("runtime.major_gcs", "count");
    ("runtime.promoted_mb", "MB");
    ("trace.query_qps", "1/s");
    ("trace.overhead_frac", "ratio");
  ]

(* A run's metrics in catalogue order.  An end-to-end metric a workload
   fails to produce, or any produced name outside the catalogue, is a
   benchmark bug. *)
let select ~trace (o : Common.outcome) =
  let catalogue, got = if trace then (per_layer, o.Common.layers) else (end_to_end, o.Common.e2e) in
  List.iter
    (fun (name, _, _) ->
      if not (List.mem_assoc name catalogue) then failwith ("metric outside the catalogue: " ^ name))
    got;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) got with
      | Some (_, v, u) ->
        if u <> unit then failwith (Printf.sprintf "metric %s: unit %s, catalogue says %s" name u unit);
        (name, v, unit)
      | None when trace -> (name, 0.0, unit)
      | None -> failwith ("missing end-to-end metric " ^ name))
    catalogue
