(* ingest-serve: one closed-loop client acking new documents into a
   journaled [Core.Ingest] index that already holds an initial corpus,
   with union searches ([Ingest.search]) at a fixed docs-to-queries
   ratio and a budgeted merge plus [Live_index.gc] after every round.
   An episode is a fixed number of rounds on a fixture built anew from
   the same initial corpus, with the same documents and queries.

   Policy, identical on every run: a round is [round_docs] acks with
   [round_queries] searches issued back to back half way through, then
   one [merge_step] under [merge_budget_bytes], then [gc].  The store is
   journaled, so it is never compacted ([Live_index.compact] refuses
   journaled stores): reclaimed bytes stay as holes in the file. *)

open Common

type config = {
  initial_docs : int;
  round_docs : int;
  round_queries : int;
  rounds : int;  (** rounds per episode *)
}

(* The document model; its seed is the run seed. *)
let model = Collections.Presets.cacm ()
let merge_budget_bytes = 1 lsl 20

type fixture = {
  vfs : Vfs.t;
  ix : Core.Ingest.t;
  mutable user_bytes : int;  (** raw bytes of every acked document *)
  mutable acked : int list;  (** doc ids, newest first *)
}

let file = "serve.mneme"

let stream_of_seq seq =
  let next = Seq.to_dispenser seq in
  fun () -> match next () with Some x -> x | None -> failwith "stream exhausted"

let doc_stream ~seed =
  let model = { model with Collections.Docmodel.seed; n_docs = max_int } in
  let next = stream_of_seq (Collections.Synth.documents model) in
  fun () -> Collections.Synth.document_text (next ())

let query_stream ~seed = Search.unique_stream model ~seed

(* Ack one document; an overloaded buffer gets one merge step and the
   document is retried, so every document is eventually acked. *)
let add fx text =
  let rec go () =
    match Core.Ingest.add_document fx.ix text with
    | Core.Ingest.Acked { doc; _ } ->
      fx.acked <- doc :: fx.acked;
      fx.user_bytes <- fx.user_bytes + String.length text
    | Core.Ingest.Overloaded ->
      ignore (Core.Ingest.merge_step fx.ix);
      go ()
  in
  go ()

(* A fresh index holding the initial corpus, drained and collected. *)
let index initial =
  let vfs = Vfs.create () in
  let fx = { vfs; ix = Core.Ingest.create vfs ~file (); user_bytes = 0; acked = [] } in
  Array.iter (add fx) initial;
  Core.Ingest.drain fx.ix;
  ignore (Core.Live_index.gc (Core.Ingest.live fx.ix));
  fx

(* A round's log, kept for verification. *)
type round_log = {
  docs : string array;
  before : int;  (** docs acked in the round before its searches *)
  searches : (string * Inquery.Ranking.ranked list) list;
}

(* The workload's state: the generated inputs, recorded so that every
   episode replays them, and the index the next episode serves. *)
type state = {
  initial : string array;
  docs : unit -> string;
  queries : unit -> string;
  rewind : unit -> unit;
  mutable fx : fixture;
  mutable reference : round_log list option;  (** the first episode's, once verified *)
}

let build cfg ~seed =
  let doc = doc_stream ~seed in
  let initial = Array.init cfg.initial_docs (fun _ -> doc ()) in
  let docs, rewind_docs = recorded doc in
  let queries, rewind_queries = recorded (query_stream ~seed) in
  {
    initial;
    docs;
    queries;
    rewind =
      (fun () ->
        rewind_docs ();
        rewind_queries ());
    fx = index initial;
    reference = None;
  }

let reset st =
  st.rewind ();
  st.fx <- index st.initial

let index_bytes vfs =
  List.fold_left (fun acc name -> acc + Vfs.size (Vfs.open_file vfs name)) 0 (Vfs.file_names vfs)

type served = {
  rounds : round_log list;  (** oldest first *)
  sample : sample;  (** the searches' latencies; busy time of acks, searches, merges and gc *)
  ack_ms : Samples.t;
  ingest_ns : int;  (** host time of acks, merges and gc *)
  n_docs : int;
  n_queries : int;
  sim_ack_ms : Samples.t;
  sim_search_ms : Samples.t;
  write_amp : float;
  space_amp : float;
  vfs_counters : Vfs.counters;
  stats : Core.Ingest.stats;  (** seals and overloads: the episode's *)
  publishes : int;
  folded_bytes : int;
  reclaimable : Samples.t;  (** stranded bytes just before each gc *)
  file_bytes : int;
  heap_mb : float;  (** peak heap at the episode's end *)
}

let serve (cfg : config) st =
  let fx = st.fx in
  let ack_ms = Samples.create () and search_ms = Samples.create () in
  let sim_ack_ms = Samples.create () and sim_search_ms = Samples.create () in
  let reclaimable = Samples.create () in
  let rounds = ref [] and ingest_ns = ref 0 and search_ns = ref 0 in
  let n_docs = ref 0 and n_queries = ref 0 in
  let live = Core.Ingest.live fx.ix in
  let vfs0 = Vfs.counters fx.vfs and stats0 = Core.Ingest.stats fx.ix in
  let epoch0 = Core.Live_index.epoch live and bytes0 = fx.user_bytes in
  let timed f =
    let t0 = now_ns () in
    let x = f () in
    let ns = now_ns () - t0 in
    pace ns;
    (x, ns)
  in
  let ack text =
    Trace.new_request ();
    let (), sim =
      sim_ms fx.vfs (fun () ->
          let (), ns = timed (fun () -> Trace.span "ingest.add_document" (fun () -> add fx text)) in
          Samples.add ack_ms (ms_of_ns ns);
          ingest_ns := !ingest_ns + ns)
    in
    Samples.add sim_ack_ms sim;
    incr n_docs
  in
  for _ = 1 to cfg.rounds do
    (* Documents are generated outside the timed calls; host figures
       sum the calls alone, so generator cost never reads as system
       cost. *)
    let docs = Array.init cfg.round_docs (fun _ -> st.docs ()) in
    let half = cfg.round_docs / 2 in
    for i = 0 to half - 1 do
      ack docs.(i)
    done;
    let searches =
      List.init cfg.round_queries (fun _ ->
          let q = st.queries () in
          Trace.new_request ();
          if !Trace.enabled then
            ignore (Trace.span ~replay:true "query.parse" (fun () -> Inquery.Query.parse_exn q));
          let r, sim =
            sim_ms fx.vfs (fun () ->
                let r, ns =
                  timed (fun () ->
                      Trace.span "ingest.search" (fun () -> Core.Ingest.search ~top_k fx.ix q))
                in
                Samples.add search_ms (ms_of_ns ns);
                search_ns := !search_ns + ns;
                r)
          in
          Samples.add sim_search_ms sim;
          incr n_queries;
          (q, r))
    in
    for i = half to cfg.round_docs - 1 do
      ack docs.(i)
    done;
    let budget = Mneme.Budget.create ~max_bytes:merge_budget_bytes () in
    let _, ns = timed (fun () -> Trace.span "ingest.merge_step" (fun () -> Core.Ingest.merge_step ~budget fx.ix)) in
    ingest_ns := !ingest_ns + ns;
    Samples.add reclaimable (fi (Core.Live_index.stranded_bytes live));
    let _, ns = timed (fun () -> Trace.span "live_index.gc" (fun () -> Core.Live_index.gc live)) in
    ingest_ns := !ingest_ns + ns;
    rounds := { docs; before = half; searches } :: !rounds
  done;
  let v = Vfs.diff_counters ~later:(Vfs.counters fx.vfs) ~earlier:vfs0 in
  let s = Core.Ingest.stats fx.ix in
  {
    rounds = List.rev !rounds;
    sample = { busy_ns = !ingest_ns + !search_ns; lat_ms = Samples.to_array search_ms };
    ack_ms;
    ingest_ns = !ingest_ns;
    n_docs = !n_docs;
    n_queries = !n_queries;
    sim_ack_ms;
    sim_search_ms;
    write_amp = fi v.Vfs.bytes_written /. fi (fx.user_bytes - bytes0);
    space_amp = fi (index_bytes fx.vfs) /. fi fx.user_bytes;
    vfs_counters = v;
    stats =
      {
        s with
        Core.Ingest.seals = s.Core.Ingest.seals - stats0.Core.Ingest.seals;
        overloads = s.Core.Ingest.overloads - stats0.Core.Ingest.overloads;
      };
    publishes = Core.Live_index.epoch live - epoch0;
    folded_bytes = s.Core.Ingest.folded_bytes - stats0.Core.Ingest.folded_bytes;
    reclaimable;
    file_bytes = (Core.Live_index.space live).Core.Live_index.file_bytes;
    heap_mb = heap_peak_mb ();
  }

let log_episode st sv =
  log "ingest-serve episode: %d rounds, %d docs acked (%d user bytes in the index), %d searches; files: %s"
    (List.length sv.rounds) sv.n_docs st.fx.user_bytes sv.n_queries
    (String.concat ", "
       (List.map
          (fun name -> Printf.sprintf "%s %d" name (Vfs.size (Vfs.open_file st.fx.vfs name)))
          (Vfs.file_names st.fx.vfs)))

let same_ranking = Search.same_ranking

(* Verification, after each episode:
   - [Ingest.audit] is empty;
   - [Ingest.documents] holds every acked document exactly once;
   - every union search matches an engine over an [Ingest.session]
     pinned at the same point ([Engine.run_query], term-at-a-time over
     every posting).  The sessions are taken on a twin index that
     replays the same operations, so pinning (which seals the active
     segment) never changes the measured index.  Every episode replays
     the same inputs, so a later episode whose rankings all equal the
     first (verified) episode's is verified by them; any difference
     sends it to the twin as well. *)
let check_with_twin (cfg : config) st sv fail =
  let twin = index st.initial in
  List.iter
    (fun r ->
      for i = 0 to r.before - 1 do
        add twin r.docs.(i)
      done;
      let ses = Core.Ingest.session twin.ix in
      let engine =
        Core.Engine.create ~vfs:twin.vfs ~store:ses.Core.Ingest.ses_store ~dict:ses.Core.Ingest.ses_dict
          ~n_docs:ses.Core.Ingest.ses_n_docs ~max_doc_id:ses.Core.Ingest.ses_max_doc_id
          ~avg_doc_len:ses.Core.Ingest.ses_avg_doc_len ~doc_len:ses.Core.Ingest.ses_doc_len ()
      in
      List.iter
        (fun (q, got) ->
          let expect = (Core.Engine.run_query_string ~top_k engine q).Core.Engine.ranked in
          if not (same_ranking expect got) then
            fail (Printf.sprintf "union search %S differs from the pinned session" q))
        r.searches;
      Core.Ingest.close_session twin.ix ses;
      for i = r.before to cfg.round_docs - 1 do
        add twin r.docs.(i)
      done;
      ignore
        (Core.Ingest.merge_step ~budget:(Mneme.Budget.create ~max_bytes:merge_budget_bytes ()) twin.ix);
      ignore (Core.Live_index.gc (Core.Ingest.live twin.ix)))
    sv.rounds

let same_rounds a b =
  List.equal
    (fun (x : round_log) (y : round_log) ->
      x.docs = y.docs
      && List.equal (fun (q, r) (q', r') -> String.equal q q' && same_ranking r r') x.searches y.searches)
    a b

let verify cfg st sv =
  let fx = st.fx in
  let problems = ref [] and failed = ref 0 in
  let fail msg =
    incr failed;
    if List.length !problems < 5 then problems := msg :: !problems
  in
  List.iter (fun (where, what) -> fail (Printf.sprintf "audit %s: %s" where what)) (Core.Ingest.audit fx.ix);
  let docs = List.map fst (Core.Ingest.documents fx.ix) in
  let acked = List.sort compare fx.acked in
  if docs <> acked then fail "Ingest.documents differs from the acked documents";
  let rec dup = function a :: (b :: _ as tl) -> a = b || dup tl | _ -> false in
  if dup acked then fail "a document was acked twice";
  (match st.reference with
   | Some first when same_rounds first sv.rounds -> ()
   | reference ->
     let before = !failed in
     check_with_twin cfg st sv fail;
     if Option.is_none reference && !failed = before then st.reference <- Some sv.rounds);
  (sv.n_docs + sv.n_queries, !failed, List.rev !problems)

let e2e_metrics sv ~seed =
  [
    ("sim_query_p50_ms", Samples.pct sv.sim_search_ms 50.0, "ms");
    ("sim_query_p99_ms", Samples.pct sv.sim_search_ms 99.0, "ms");
    ("sim_capacity_qps", capacity_qps ~seed (Samples.to_array sv.sim_search_ms), "1/s");
    ("space_amp", sv.space_amp, "ratio");
    ("heap_peak_mb", sv.heap_mb, "MB");
  ]

(* The write path's own end-to-end figures, over the first episode:
   reported by the traced run and on stderr by the untraced one. *)
let write_metrics sv =
  [
    ("ingest.ack_p50_ms", Samples.pct sv.ack_ms 50.0, "ms");
    ("ingest.ack_p99_ms", Samples.pct sv.ack_ms 99.0, "ms");
    ("ingest.sim_ack_p99_ms", Samples.pct sv.sim_ack_ms 99.0, "ms");
    ("ingest.docs_per_s", fi sv.n_docs /. (fi sv.ingest_ns /. 1e9), "1/s");
    ("ingest.write_amp", sv.write_amp, "ratio");
  ]

let layer_metrics sv =
  let v = sv.vfs_counters in
  let queries = fi sv.n_queries in
  write_metrics sv
  @ [
      ("ingest.add_us", Trace.self_us_mean "ingest.add_document", "us");
      ("ingest.seals", fi sv.stats.Core.Ingest.seals, "count");
      ("ingest.overloads", fi sv.stats.Core.Ingest.overloads, "count");
      ("ingest.merge_ms", Trace.self_us_mean "ingest.merge_step" /. 1000.0, "ms");
      ("ingest.folded_bytes", fi sv.folded_bytes, "bytes");
      ("ingest.search_us", Trace.self_us_mean "ingest.search", "us");
      ("query.parse_us", Trace.self_us_mean "query.parse", "us");
      ("live_index.gc_ms", Trace.self_us_mean "live_index.gc" /. 1000.0, "ms");
      ("live_index.reclaimable_bytes", Samples.mean sv.reclaimable, "bytes");
      ("live_index.file_bytes", fi sv.file_bytes, "bytes");
      ("epoch.publishes", fi sv.publishes, "count");
      ("vfs.disk_inputs_per_query", fi v.Vfs.disk_inputs /. queries, "count");
      ("vfs.bytes_read_per_query", fi v.Vfs.bytes_read /. queries, "bytes");
      ( "vfs.os_cache_hit_rate",
        ratio (fi v.Vfs.os_cache_hits) (fi (v.Vfs.os_cache_hits + v.Vfs.os_cache_misses)),
        "ratio" );
      ("vfs.disk_outputs", fi v.Vfs.disk_outputs, "count");
      ("vfs.bytes_written", fi v.Vfs.bytes_written, "bytes");
    ]

let run cfg ~seed ~seconds ~reps ~trace =
  drive
    {
      build = (fun () -> build cfg ~seed);
      reset;
      episode = serve cfg;
      sample = (fun sv -> sv.sample);
      verify = verify cfg;
      e2e =
        (fun st sv ->
          log_episode st sv;
          List.iter (fun (name, v, unit) -> log "%s %g %s" name v unit) (write_metrics sv);
          e2e_metrics sv ~seed);
      layers =
        (fun st sv ->
          log_episode st sv;
          layer_metrics sv);
    }
    ~reps ~seconds ~trace
