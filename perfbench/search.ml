(* search-cold and search-hot: one closed-loop client calling
   [Core.Frontend.run_query] over a single-replica Mneme index, in
   episodes of a fixed number of requests.

   The fixture holds only what the workload serves: the Mneme file in
   its own simulated file system, the catalog (dictionary and document
   lengths), the frontend and the query stream.  The indexer is dropped
   before timing. *)

open Common

type traffic =
  | Unique
      (** a fresh planner-mix query per request; every episode replays
          the first one's queries on a frontend opened anew (empty result
          cache and buffers, purged OS cache) *)
  | Zipf of { pool : int; skew : float; warmup : int }
      (** Zipf popularity over a fixed pool of planner-mix queries;
          [warmup] draws run outside timing after one pass over the pool,
          and the draws continue from episode to episode on the same warm
          frontend *)

type config = {
  model : Collections.Docmodel.t;
  whole_file_buffers : bool;  (** else the paper's Table 2 sizing *)
  block_cache_bytes : int;
  traffic : traffic;
  episode : int;  (** requests per episode *)
}

let result_cache_bytes = 1 lsl 20

(* Per-layer accumulators filled only by traced runs. *)
type layer_counts = {
  mutable fetches : int;
  mutable sim_fetch_ms : float;
  mutable lookups : int;
  mutable est_bytes : int;
  mutable replay_bytes : int;
  mutable plans : int array;  (** exhaustive, maxscore, intersect *)
  mutable scored : int;
  mutable skipped : int;
  mutable seeks : int;
}

let zero_counts () =
  {
    fetches = 0;
    sim_fetch_ms = 0.0;
    lookups = 0;
    est_bytes = 0;
    replay_bytes = 0;
    plans = [| 0; 0; 0 |];
    scored = 0;
    skipped = 0;
    seeks = 0;
  }

(* The query stream, a pure function of the seed; [rewind] restarts a
   replayed (Unique) stream. *)
type stream = { next : unit -> string; rewind : unit -> unit; pool : string array }

type fixture = {
  vfs : Vfs.t;
  mutable fe : Core.Frontend.t;
  catalog : Core.Catalog.t;
  file : string;
  mneme_bytes : int;
  buffers : Core.Buffer_sizing.t;
  counts : layer_counts ref;  (** the timed phase's; zeroed when it starts *)
  replay_cache : (Util.Block_cache.t * int) option;
      (** the replayed executor's own block cache, sized like the frontend's *)
  fetched : (string, bytes) Hashtbl.t;  (** this request's records, for replays *)
  stream : stream;
  oracle : (string, Inquery.Ranking.ranked list) Hashtbl.t;  (** by query text, across episodes *)
  mutable oracle_engine : Core.Engine.t option;
}

let doc_len (c : Core.Catalog.t) d =
  if d < 0 || d >= Array.length c.Core.Catalog.doc_lens then 0 else c.Core.Catalog.doc_lens.(d)

(* A frontend over a fresh session of the Mneme file: empty buffers,
   result cache and block cache, purged OS cache.  Traced, the session's
   fetch is wrapped in a [store.fetch] span. *)
let open_frontend cfg ~vfs ~file ~buffers ~(catalog : Core.Catalog.t) ~counts ~fetched =
  Vfs.purge_os_cache vfs;
  let session = Core.Mneme_backend.open_session vfs ~file ~buffers in
  let store =
    if not !Trace.enabled then session
    else
      {
        session with
        Core.Index_store.fetch =
          (fun entry ->
            Trace.span "store.fetch" (fun () ->
                let r, ms = sim_ms vfs (fun () -> session.Core.Index_store.fetch entry) in
                let c = !counts in
                c.fetches <- c.fetches + 1;
                c.sim_fetch_ms <- c.sim_fetch_ms +. ms;
                Option.iter (Hashtbl.replace fetched entry.Inquery.Dictionary.term) r;
                r));
      }
  in
  let fe =
    Core.Frontend.create
      ~replicas:[ { Core.Frontend.name = "primary"; vfs; store } ]
      ~dict:catalog.Core.Catalog.dict ~n_docs:catalog.Core.Catalog.n_docs
      ~avg_doc_len:(Core.Catalog.avg_doc_length catalog) ~doc_len:(doc_len catalog)
      ~result_cache_bytes ~block_cache_bytes:cfg.block_cache_bytes ()
  in
  (fe, session)

let build cfg stream =
  let indexer = Collections.Synth.build_index cfg.model in
  let catalog = Core.Catalog.of_indexer indexer in
  let vfs = Vfs.create () in
  let file = cfg.model.Collections.Docmodel.name ^ ".mneme" in
  let largest = ref 1 in
  let records =
    Seq.map
      (fun (id, r) ->
        largest := max !largest (Bytes.length r);
        (id, r))
      (Inquery.Indexer.to_records indexer)
  in
  let store = Core.Mneme_backend.build vfs ~file ~dict:catalog.Core.Catalog.dict records in
  let mneme_bytes = Mneme.Store.file_size store in
  let buffers =
    if cfg.whole_file_buffers then
      { Core.Buffer_sizing.small = mneme_bytes; medium = mneme_bytes; large = mneme_bytes }
    else Core.Buffer_sizing.compute ~largest_record:!largest ()
  in
  let counts = ref (zero_counts ()) and fetched = Hashtbl.create 16 in
  let fe, session = open_frontend cfg ~vfs ~file ~buffers ~catalog ~counts ~fetched in
  let replay_cache =
    if cfg.block_cache_bytes = 0 then None
    else
      Some
        ( Util.Block_cache.create ~capacity_bytes:cfg.block_cache_bytes ~name:"replay" (),
          session.Core.Index_store.epoch () )
  in
  {
    vfs;
    fe;
    catalog;
    file;
    mneme_bytes;
    buffers;
    counts;
    replay_cache;
    fetched;
    stream;
    oracle = Hashtbl.create 1024;
    oracle_engine = None;
  }

(* Queries come from [Presets.planner_queries]' generator in small
   chunks, each with its own seed: one chunk shares one topic pool, so
   many small chunks keep the mix of query costs alike from seed to
   seed.  Unique traffic reads the chunks in order; Zipf traffic samples
   a fixed pool built from them. *)
let queries_per_chunk = 50

let chunks model ~seed =
  let spec = Collections.Presets.planner_queries model in
  let chunk_no = ref 0 in
  fun () ->
    let seed = (seed * 100_003) + !chunk_no in
    incr chunk_no;
    Array.of_list
      (Collections.Querygen.generate model
         { spec with Collections.Querygen.n_queries = queries_per_chunk; seed })

let unique_stream model ~seed =
  let next_chunk = chunks model ~seed in
  let buf = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !buf then begin
      buf := next_chunk ();
      pos := 0
    end;
    let q = !buf.(!pos) in
    incr pos;
    q

let stream cfg ~seed =
  match cfg.traffic with
  | Unique ->
    let next, rewind = recorded (unique_stream cfg.model ~seed) in
    { next; rewind; pool = [||] }
  | Zipf { pool; skew; _ } ->
    let next = unique_stream cfg.model ~seed in
    let pool = Array.init pool (fun _ -> next ()) in
    let zipf = Util.Zipf.create ~n:(Array.length pool) ~s:skew in
    let rng = Util.Rng.create ~seed:(seed + 17) in
    { next = (fun () -> pool.(Util.Zipf.sample zipf rng - 1)); rewind = ignore; pool }

(* One request: parse, then the frontend.  This is the timed unit. *)
let request fx text =
  Trace.new_request ();
  Trace.span "request" (fun () ->
      let q = Trace.span "query.parse" (fun () -> Inquery.Query.parse_exn text) in
      (q, Trace.span "frontend.run_query" (fun () -> Core.Frontend.run_query ~top_k fx.fe q)))

let warm cfg fx =
  match cfg.traffic with
  | Unique -> ()
  | Zipf { warmup; _ } ->
    Array.iter (fun text -> ignore (request fx text)) fx.stream.pool;
    for _ = 1 to warmup do
      ignore (request fx (fx.stream.next ()))
    done

(* Before every episode but the first: Unique traffic replays its
   queries on a fresh frontend; Zipf traffic carries on. *)
let reset cfg fx =
  match cfg.traffic with
  | Unique ->
    fx.stream.rewind ();
    fx.fe <-
      fst
        (open_frontend cfg ~vfs:fx.vfs ~file:fx.file ~buffers:fx.buffers ~catalog:fx.catalog
           ~counts:fx.counts ~fetched:fx.fetched)
  | Zipf _ -> ()

(* Replays for the layers reached only inside [run_query]: the same
   query over the records this request fetched, through each layer's
   public function. *)
let replay fx q =
  let c = !(fx.counts) in
  let dict = fx.catalog.Core.Catalog.dict in
  let terms = Inquery.Query.terms q in
  ignore
    (Trace.span ~replay:true "dictionary.find" (fun () -> List.map (Inquery.Dictionary.find dict) terms));
  c.lookups <- c.lookups + List.length terms;
  let record term = Hashtbl.find_opt fx.fetched term in
  Hashtbl.iter
    (fun _ r ->
      Trace.span ~replay:true "postings.decode" (fun () ->
          ignore (Inquery.Postings.fold_docs r ~init:0 ~f:(fun n ~doc:_ ~tf:_ -> n + 1))))
    fx.fetched;
  let stats_of term = Option.map Inquery.Postings.record_stats (record term) in
  let est =
    Trace.span ~replay:true "planner.decide" (fun () ->
        Inquery.Planner.decide ~stats_of ~k:top_k q)
  in
  let source =
    {
      Inquery.Infnet.fetch = (fun e -> record e.Inquery.Dictionary.term);
      n_docs = fx.catalog.Core.Catalog.n_docs;
      max_doc_id = fx.catalog.Core.Catalog.n_docs - 1;
      avg_doc_len = Core.Catalog.avg_doc_length fx.catalog;
      doc_len = doc_len fx.catalog;
    }
  in
  let _, stats, tk =
    Trace.span ~replay:true "infnet.eval_topk" (fun () ->
        Inquery.Infnet.eval_topk source dict ?block_cache:fx.replay_cache ~k:top_k q)
  in
  c.est_bytes <- c.est_bytes + est.Inquery.Planner.e_bytes;
  c.replay_bytes <- c.replay_bytes + tk.Inquery.Infnet.tk_bytes_read;
  let i = match tk.Inquery.Infnet.tk_plan with Exhaustive -> 0 | Maxscore -> 1 | Intersect -> 2 in
  c.plans.(i) <- c.plans.(i) + 1;
  c.scored <- c.scored + stats.Inquery.Infnet.postings_scored;
  c.skipped <- c.skipped + tk.Inquery.Infnet.tk_blocks_skipped;
  c.seeks <- c.seeks + tk.Inquery.Infnet.tk_seeks

type served = {
  texts : string array;
  ranked : Inquery.Ranking.ranked list array;
  sample : sample;
  sim_exec_ms : Samples.t;  (** simulated latency of result-cache misses *)
  sim_all_ms : float array;  (** simulated service time of every request *)
  degraded : int;
  hedged : int;
  decoded : int;  (** postings decoded in-path *)
  vfs_counters : Vfs.counters;
  tiers : (string * Util.Cache_stats.t) list;
  counts : layer_counts;
  heap_mb : float;  (** peak heap at the episode's end *)
}

let tier tiers name = match List.assoc_opt name tiers with Some s -> s | None -> Util.Cache_stats.zero

let diff_tiers ~later ~earlier =
  List.map
    (fun (name, (l : Util.Cache_stats.t)) ->
      let e = tier earlier name in
      ( name,
        {
          l with
          Util.Cache_stats.refs = l.refs - e.refs;
          hits = l.hits - e.hits;
          evictions = l.evictions - e.evictions;
          invalidations = l.invalidations - e.invalidations;
        } ))
    later

(* One episode: [cfg.episode] requests, each timed from before parse
   to the frontend's return. *)
let serve cfg fx =
  let n = cfg.episode in
  let texts = Array.make n "" and ranked = Array.make n [] and lat_ms = Array.make n 0.0 in
  let sim_exec_ms = Samples.create () and sim_all_ms = Array.make n 0.0 in
  let degraded = ref 0 and hedged = ref 0 and decoded = ref 0 and busy_ns = ref 0 in
  let vfs0 = Vfs.counters fx.vfs and tiers0 = Core.Frontend.cache_tiers fx.fe in
  fx.counts := zero_counts ();
  Hashtbl.reset fx.fetched;
  for i = 0 to n - 1 do
    let text = fx.stream.next () in
    let t0 = now_ns () in
    let q, r = request fx text in
    let t1 = now_ns () in
    lat_ms.(i) <- ms_of_ns (t1 - t0);
    busy_ns := !busy_ns + (t1 - t0);
    pace (t1 - t0);
    texts.(i) <- text;
    ranked.(i) <- r.Core.Frontend.ranked;
    if r.Core.Frontend.degraded then incr degraded;
    hedged := !hedged + r.Core.Frontend.hedged_fetches;
    sim_all_ms.(i) <- r.Core.Frontend.elapsed_ms;
    if not r.Core.Frontend.cached then Samples.add sim_exec_ms r.Core.Frontend.elapsed_ms;
    decoded := !decoded + r.Core.Frontend.postings_decoded;
    if !Trace.enabled then begin
      if not r.Core.Frontend.cached then replay fx q;
      Hashtbl.reset fx.fetched
    end
  done;
  let c = !(fx.counts) in
  {
    texts;
    ranked;
    sample = { busy_ns = !busy_ns; lat_ms };
    sim_exec_ms;
    sim_all_ms;
    degraded = !degraded;
    hedged = !hedged;
    decoded = !decoded;
    vfs_counters = Vfs.diff_counters ~later:(Vfs.counters fx.vfs) ~earlier:vfs0;
    tiers = diff_tiers ~later:(Core.Frontend.cache_tiers fx.fe) ~earlier:tiers0;
    counts = { c with plans = Array.copy c.plans };
    heap_mb = heap_peak_mb ();
  }

let same_ranking a b =
  List.equal
    (fun (x : Inquery.Ranking.ranked) (y : Inquery.Ranking.ranked) ->
      x.doc = y.doc && Float.equal x.score y.score)
    a b

(* The exhaustive oracle: the same query on a cache-less engine over its
   own session, forced to [Exhaustive].  Every timed ranking is checked;
   a query text is evaluated once per run.  A degraded answer is a
   failure too. *)
let verify fx sv =
  let engine =
    match fx.oracle_engine with
    | Some e -> e
    | None ->
      let store = Core.Mneme_backend.open_session fx.vfs ~file:fx.file ~buffers:fx.buffers in
      let e =
        Core.Engine.create ~vfs:fx.vfs ~store ~dict:fx.catalog.Core.Catalog.dict
          ~n_docs:fx.catalog.Core.Catalog.n_docs
          ~avg_doc_len:(Core.Catalog.avg_doc_length fx.catalog) ~doc_len:(doc_len fx.catalog) ()
      in
      fx.oracle_engine <- Some e;
      e
  in
  let problems = ref [] and failed = ref 0 in
  Array.iteri
    (fun i text ->
      let expect =
        match Hashtbl.find_opt fx.oracle text with
        | Some r -> r
        | None ->
          let r =
            (Core.Engine.run_topk_string ~plan:(Inquery.Planner.Forced Inquery.Planner.Exhaustive)
               ~k:top_k engine text)
              .Core.Engine.topk_ranked
          in
          Hashtbl.add fx.oracle text r;
          r
      in
      if not (same_ranking expect sv.ranked.(i)) then begin
        incr failed;
        if List.length !problems < 5 then
          problems := Printf.sprintf "request %d %S: ranking differs from the exhaustive oracle" i text :: !problems
      end)
    sv.texts;
  (Array.length sv.texts, !failed + sv.degraded, List.rev !problems)

let log_fixture cfg fx =
  log
    "fixture: %d docs, %d raw bytes, Mneme file %d bytes; buffers small/medium/large %d/%d/%d \
     bytes; OS cache %d bytes; result cache %d bytes; block cache %d bytes"
    fx.catalog.Core.Catalog.n_docs fx.catalog.Core.Catalog.collection_bytes fx.mneme_bytes
    fx.buffers.Core.Buffer_sizing.small fx.buffers.Core.Buffer_sizing.medium
    fx.buffers.Core.Buffer_sizing.large
    (let m = Vfs.cost_model fx.vfs in
     m.Vfs.Cost_model.os_cache_blocks * m.Vfs.Cost_model.block_size)
    result_cache_bytes cfg.block_cache_bytes

let e2e_metrics fx sv ~seed =
  [
    ("sim_query_p50_ms", Samples.pct sv.sim_exec_ms 50.0, "ms");
    ("sim_query_p99_ms", Samples.pct sv.sim_exec_ms 99.0, "ms");
    ("sim_capacity_qps", capacity_qps ~seed sv.sim_all_ms, "1/s");
    ("space_amp", fi fx.mneme_bytes /. fi fx.catalog.Core.Catalog.collection_bytes, "ratio");
    ("heap_peak_mb", sv.heap_mb, "MB");
  ]

let layer_metrics cfg sv =
  let per_q x = x /. fi cfg.episode in
  let c = sv.counts in
  let result = tier sv.tiers "result" and block = tier sv.tiers "block" in
  let buffer = tier sv.tiers "buffer" in
  let v = sv.vfs_counters in
  let fe_total = Trace.total_ns "frontend.run_query" in
  [
    ("query.parse_us", Trace.self_us_mean "query.parse", "us");
    ("result_cache.hit_rate", Util.Cache_stats.hit_rate result, "ratio");
    ("result_cache.evictions", fi result.Util.Cache_stats.evictions, "count");
    ( "dictionary.find_us",
      ratio (fi (Trace.total_ns "dictionary.find") /. 1000.0) (fi c.lookups),
      "us" );
    ("dictionary.lookups_per_query", per_q (fi c.lookups), "count");
    ("planner.decide_us", Trace.self_us_mean "planner.decide", "us");
    ("planner.est_bytes_ratio", ratio (fi c.est_bytes) (fi c.replay_bytes), "ratio");
    ("planner.plan_exhaustive", fi c.plans.(0), "count");
    ("planner.plan_maxscore", fi c.plans.(1), "count");
    ("planner.plan_intersect", fi c.plans.(2), "count");
    ("store.fetch_us", Trace.self_us_mean "store.fetch", "us");
    ("store.fetches_per_query", per_q (fi c.fetches), "count");
    ("store.sim_fetch_ms", ratio c.sim_fetch_ms (fi c.fetches), "ms");
    ("buffer_pool.hit_rate", Util.Cache_stats.hit_rate buffer, "ratio");
    ("buffer_pool.evictions", fi buffer.Util.Cache_stats.evictions, "count");
    ("vfs.disk_inputs_per_query", per_q (fi v.Vfs.disk_inputs), "count");
    ("vfs.bytes_read_per_query", per_q (fi v.Vfs.bytes_read), "bytes");
    ( "vfs.os_cache_hit_rate",
      ratio (fi v.Vfs.os_cache_hits) (fi (v.Vfs.os_cache_hits + v.Vfs.os_cache_misses)),
      "ratio" );
    ("vfs.disk_outputs", fi v.Vfs.disk_outputs, "count");
    ("vfs.bytes_written", fi v.Vfs.bytes_written, "bytes");
    ("postings.decode_us", Trace.self_us_mean "postings.decode", "us");
    ("postings.decoded_per_query", per_q (fi sv.decoded), "count");
    ("postings.bytes_decoded_per_query", per_q (fi c.replay_bytes), "bytes");
    ("block_cache.hit_rate", Util.Cache_stats.hit_rate block, "ratio");
    ("block_cache.evictions", fi block.Util.Cache_stats.evictions, "count");
    ("infnet.eval_us", Trace.self_us_mean "infnet.eval_topk", "us");
    ("infnet.postings_scored", per_q (fi c.scored), "count");
    ("infnet.blocks_skipped", per_q (fi c.skipped), "count");
    ("infnet.seeks", per_q (fi c.seeks), "count");
    ("frontend.self_us", Trace.self_us_mean "frontend.run_query", "us");
    ("frontend.degraded", fi sv.degraded, "count");
    ("frontend.hedged", fi sv.hedged, "count");
    ( "frontend.unaccounted_frac",
      ratio (fi (Trace.self_ns "frontend.run_query")) (fi fe_total),
      "ratio" );
  ]

let run cfg ~seed ~seconds ~reps ~trace =
  drive
    {
      build =
        (fun () ->
          let fx = build cfg (stream cfg ~seed) in
          warm cfg fx;
          fx);
      reset = reset cfg;
      episode = serve cfg;
      sample = (fun sv -> sv.sample);
      verify;
      e2e =
        (fun fx sv ->
          log_fixture cfg fx;
          e2e_metrics fx sv ~seed);
      layers =
        (fun fx sv ->
          log_fixture cfg fx;
          layer_metrics cfg sv);
    }
    ~reps ~seconds ~trace
