(* The tiered read-path caches: decoded-block and query-result LRUs,
   unified tier statistics, frontend integration, churn coherence. *)

(* --- Util.Block_cache ---------------------------------------------- *)

let test_block_cache_basics () =
  let bc = Util.Block_cache.create ~capacity_bytes:4096 ~name:"t" () in
  Alcotest.(check bool) "miss on empty" true (Util.Block_cache.find bc ~src:1 ~blk:0 ~epoch:1 = None);
  let docs = Array.init 64 (fun i -> i) and tfs = Array.make 64 1 in
  Util.Block_cache.insert bc ~src:1 ~blk:0 ~epoch:1 ~docs ~tfs;
  (match Util.Block_cache.find bc ~src:1 ~blk:0 ~epoch:1 with
  | Some (d, t) ->
    Alcotest.(check bool) "same arrays back" true (d == docs && t == tfs)
  | None -> Alcotest.fail "expected a hit");
  (* Every key component separates entries. *)
  Alcotest.(check bool) "other block misses" true
    (Util.Block_cache.find bc ~src:1 ~blk:1 ~epoch:1 = None);
  Alcotest.(check bool) "other src misses" true
    (Util.Block_cache.find bc ~src:2 ~blk:0 ~epoch:1 = None);
  Alcotest.(check bool) "other epoch misses" true
    (Util.Block_cache.find bc ~src:1 ~blk:0 ~epoch:2 = None);
  let s = Util.Block_cache.stats bc in
  Alcotest.(check int) "refs" 5 s.Util.Cache_stats.refs;
  Alcotest.(check int) "hits" 1 s.Util.Cache_stats.hits;
  Alcotest.(check int) "misses" 4 (Util.Cache_stats.misses s);
  Alcotest.(check int) "resident" 1 s.Util.Cache_stats.resident_entries

let test_block_cache_evicts_lru () =
  (* Budget fits two of the three equal-cost blocks; the least recently
     used one goes. *)
  let docs = Array.make 100 0 and tfs = Array.make 100 0 in
  let cost = (8 * 200) + 48 in
  let bc = Util.Block_cache.create ~capacity_bytes:(2 * cost) ~name:"t" () in
  Util.Block_cache.insert bc ~src:1 ~blk:0 ~epoch:1 ~docs ~tfs;
  Util.Block_cache.insert bc ~src:1 ~blk:1 ~epoch:1 ~docs ~tfs;
  ignore (Util.Block_cache.find bc ~src:1 ~blk:0 ~epoch:1);
  Util.Block_cache.insert bc ~src:1 ~blk:2 ~epoch:1 ~docs ~tfs;
  Alcotest.(check bool) "recently-touched block 0 survives" true
    (Util.Block_cache.find bc ~src:1 ~blk:0 ~epoch:1 <> None);
  Alcotest.(check bool) "lru block 1 evicted" true
    (Util.Block_cache.find bc ~src:1 ~blk:1 ~epoch:1 = None);
  Alcotest.(check int) "one eviction" 1 (Util.Block_cache.stats bc).Util.Cache_stats.evictions

let test_block_cache_retain () =
  let docs = [| 1 |] and tfs = [| 1 |] in
  let bc = Util.Block_cache.create ~name:"t" () in
  List.iter (fun e -> Util.Block_cache.insert bc ~src:e ~blk:0 ~epoch:e ~docs ~tfs) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "epochs" [ 1; 2; 3 ] (Util.Block_cache.epochs bc);
  Alcotest.(check int) "two dropped" 2 (Util.Block_cache.retain bc ~keep:(fun e -> e = 2));
  Alcotest.(check (list int)) "only kept epoch" [ 2 ] (Util.Block_cache.epochs bc);
  Alcotest.(check int) "invalidations counted" 2
    (Util.Block_cache.stats bc).Util.Cache_stats.invalidations;
  Alcotest.(check int) "zero capacity disables" 0
    (let off = Util.Block_cache.create ~capacity_bytes:0 ~name:"off" () in
     Util.Block_cache.insert off ~src:1 ~blk:0 ~epoch:1 ~docs ~tfs;
     (Util.Block_cache.stats off).Util.Cache_stats.resident_entries)

(* --- Core.Result_cache --------------------------------------------- *)

let test_result_cache_epoch_purge () =
  let rc = Core.Result_cache.create ~name:"t" () in
  Core.Result_cache.insert rc ~key:"q" ~epoch:3 ~coverage:Core.Result_cache.Full ~cost:100 [ 1 ];
  Alcotest.(check bool) "hit at its epoch" true
    (Core.Result_cache.find rc ~key:"q" ~epoch:3 = Some [ 1 ]);
  (* A probe under any other epoch purges the stale entry on the spot. *)
  Alcotest.(check bool) "miss at a newer epoch" true
    (Core.Result_cache.find rc ~key:"q" ~epoch:4 = None);
  Alcotest.(check int) "purged, not resident" 0 (Core.Result_cache.length rc);
  Alcotest.(check bool) "gone even at its own epoch" true
    (Core.Result_cache.find rc ~key:"q" ~epoch:3 = None);
  let s = Core.Result_cache.stats rc in
  Alcotest.(check int) "one hit" 1 s.Util.Cache_stats.hits;
  Alcotest.(check int) "one invalidation" 1 s.Util.Cache_stats.invalidations

let test_result_cache_coverage () =
  let rc = Core.Result_cache.create ~name:"t" () in
  Core.Result_cache.insert rc ~key:"q" ~epoch:1 ~coverage:Core.Result_cache.Partial ~cost:10
    [ 9 ];
  Alcotest.(check bool) "partial never served as full" true
    (Core.Result_cache.find rc ~key:"q" ~epoch:1 = None);
  Alcotest.(check bool) "find_any sees it with its coverage" true
    (Core.Result_cache.find_any rc ~key:"q" ~epoch:1 = Some ([ 9 ], Core.Result_cache.Partial));
  (* A later full answer overwrites the partial. *)
  Core.Result_cache.insert rc ~key:"q" ~epoch:1 ~coverage:Core.Result_cache.Full ~cost:10 [ 7 ];
  Alcotest.(check bool) "full replaces partial" true
    (Core.Result_cache.find rc ~key:"q" ~epoch:1 = Some [ 7 ]);
  Alcotest.(check int) "one entry" 1 (Core.Result_cache.length rc)

let test_result_cache_budget () =
  let rc = Core.Result_cache.create ~capacity_bytes:250 ~name:"t" () in
  List.iter
    (fun i ->
      Core.Result_cache.insert rc
        ~key:(string_of_int i)
        ~epoch:1 ~coverage:Core.Result_cache.Full ~cost:100 [ i ])
    [ 1; 2 ];
  ignore (Core.Result_cache.find rc ~key:"1" ~epoch:1);
  Core.Result_cache.insert rc ~key:"3" ~epoch:1 ~coverage:Core.Result_cache.Full ~cost:100 [ 3 ];
  Alcotest.(check bool) "recently-probed key survives" true
    (Core.Result_cache.find rc ~key:"1" ~epoch:1 <> None);
  Alcotest.(check bool) "lru key evicted" true (Core.Result_cache.find rc ~key:"2" ~epoch:1 = None);
  Alcotest.(check int) "evictions" 1 (Core.Result_cache.stats rc).Util.Cache_stats.evictions;
  Alcotest.(check bool) "negative cost rejected" true
    (match
       Core.Result_cache.insert rc ~key:"x" ~epoch:1 ~coverage:Core.Result_cache.Full ~cost:(-1)
         []
     with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- unified tier statistics --------------------------------------- *)

let test_cache_stats_merge () =
  let a =
    {
      Util.Cache_stats.refs = 10;
      hits = 4;
      evictions = 1;
      invalidations = 2;
      resident_bytes = 100;
      resident_entries = 3;
    }
  in
  let b =
    {
      Util.Cache_stats.refs = 5;
      hits = 5;
      evictions = 0;
      invalidations = 1;
      resident_bytes = 50;
      resident_entries = 2;
    }
  in
  let m = Util.Cache_stats.merge [ a; b; Util.Cache_stats.zero ] in
  Alcotest.(check int) "refs" 15 m.Util.Cache_stats.refs;
  Alcotest.(check int) "hits" 9 m.Util.Cache_stats.hits;
  Alcotest.(check int) "misses" 6 (Util.Cache_stats.misses m);
  Alcotest.(check int) "invalidations" 3 m.Util.Cache_stats.invalidations;
  Alcotest.(check int) "resident bytes" 150 m.Util.Cache_stats.resident_bytes;
  Alcotest.(check bool) "hit rate" true (abs_float (Util.Cache_stats.hit_rate m -. 0.6) < 1e-9);
  Alcotest.(check bool) "empty merge is zero" true
    (Util.Cache_stats.merge [] = Util.Cache_stats.zero)

(* --- frontend integration ------------------------------------------ *)

let model =
  Collections.Docmodel.make ~name:"cache-fe" ~n_docs:1200 ~core_vocab:600 ~mean_doc_len:60.0
    ~hapax_prob:0.02 ~seed:71 ()

let prepared = lazy (Core.Experiment.prepare model)
let query = "#sum( ba be bi bo )"

let fingerprint ranked =
  List.map
    (fun r -> (r.Inquery.Ranking.doc, Printf.sprintf "%.9f" r.Inquery.Ranking.score))
    ranked

let test_frontend_result_cache () =
  let p = Lazy.force prepared in
  let fe =
    Core.Frontend.of_prepared p ~names:[ "a" ] ~result_cache_bytes:(1 lsl 16)
      ~block_cache_bytes:(1 lsl 20)
  in
  let r1 = Core.Frontend.run_query_string ~top_k:15 fe query in
  Alcotest.(check bool) "first run computes" false r1.Core.Frontend.cached;
  let r2 = Core.Frontend.run_query_string ~top_k:15 fe query in
  Alcotest.(check bool) "second run served from cache" true r2.Core.Frontend.cached;
  Alcotest.(check bool) "bit-identical ranking" true
    (fingerprint r2.Core.Frontend.ranked = fingerprint r1.Core.Frontend.ranked);
  Alcotest.(check bool) "no work at all" true
    (r2.Core.Frontend.elapsed_ms = 0.0 && r2.Core.Frontend.postings_decoded = 0);
  Alcotest.(check int) "same epoch" r1.Core.Frontend.epoch r2.Core.Frontend.epoch;
  (* A different k is a different answer, hence a different key. *)
  let r3 = Core.Frontend.run_query_string ~top_k:5 fe query in
  Alcotest.(check bool) "different k misses" false r3.Core.Frontend.cached;
  (* Surface variants of the same normalised query share the entry:
     extra whitespace re-prints identically. *)
  let r4 = Core.Frontend.run_query_string ~top_k:15 fe "#sum(  ba   be bi bo )" in
  Alcotest.(check bool) "canonical key unifies spacing" true r4.Core.Frontend.cached;
  (* Floored queries bypass the cache in both directions. *)
  let r5 = Core.Frontend.run_query_string ~top_k:15 ~floor:0.1 fe query in
  Alcotest.(check bool) "floor bypasses" false r5.Core.Frontend.cached;
  match List.assoc_opt "result" (Core.Frontend.cache_tiers fe) with
  | None -> Alcotest.fail "result tier missing from the report"
  | Some s ->
    Alcotest.(check int) "two hits" 2 s.Util.Cache_stats.hits;
    Alcotest.(check bool) "entries resident" true (s.Util.Cache_stats.resident_entries >= 1)

let test_frontend_block_cache () =
  let p = Lazy.force prepared in
  let fe =
    Core.Frontend.of_prepared p ~names:[ "a" ] ~block_cache_bytes:(1 lsl 22)
  in
  let r1 = Core.Frontend.run_query_string ~top_k:15 fe query in
  let r2 = Core.Frontend.run_query_string ~top_k:15 fe query in
  Alcotest.(check bool) "no result cache: both computed" true
    ((not r1.Core.Frontend.cached) && not r2.Core.Frontend.cached);
  Alcotest.(check bool) "identical rankings" true
    (fingerprint r1.Core.Frontend.ranked = fingerprint r2.Core.Frontend.ranked);
  Alcotest.(check bool)
    (Printf.sprintf "reused blocks decode less (%d < %d)" r2.Core.Frontend.postings_decoded
       r1.Core.Frontend.postings_decoded)
    true
    (r2.Core.Frontend.postings_decoded < r1.Core.Frontend.postings_decoded);
  match List.assoc_opt "block" (Core.Frontend.cache_tiers fe) with
  | None -> Alcotest.fail "block tier missing from the report"
  | Some s -> Alcotest.(check bool) "block hits" true (s.Util.Cache_stats.hits > 0)

(* Satellite regression: a stalled replica blowing the deadline yields a
   degraded partial — the fill path must refuse to cache it as a full
   answer, and the healthy recomputation must overwrite it. *)
let test_stalled_deadline_result_never_cached () =
  let p = Lazy.force prepared in
  let fe =
    Core.Frontend.of_prepared p ~names:[ "solo" ] ~buffers:Core.Buffer_sizing.no_cache
      ~window:1000 ~trip_after:1000 ~result_cache_bytes:(1 lsl 16)
  in
  let vfs = Core.Frontend.replica_vfs fe ~name:"solo" in
  Vfs.set_fault vfs (Vfs.Fault.degraded_device ~file:p.Core.Experiment.mneme_file ~ms:120.0);
  Vfs.purge_os_cache vfs;
  let r1 = Core.Frontend.run_query_string ~top_k:15 ~deadline_ms:100.0 fe query in
  Alcotest.(check bool) "stall blew the deadline" true r1.Core.Frontend.deadline_hit;
  Alcotest.(check bool) "degraded" true r1.Core.Frontend.degraded;
  (* Device healed: the same query must be recomputed, not replayed. *)
  Vfs.clear_fault vfs;
  let r2 = Core.Frontend.run_query_string ~top_k:15 fe query in
  Alcotest.(check bool) "degraded partial was not served" false r2.Core.Frontend.cached;
  Alcotest.(check bool) "healthy run is complete" false r2.Core.Frontend.degraded;
  Alcotest.(check bool) "full answer has every term's evidence" true
    (List.length r2.Core.Frontend.ranked >= List.length r1.Core.Frontend.ranked);
  (* The healthy full answer now caches. *)
  let r3 = Core.Frontend.run_query_string ~top_k:15 fe query in
  Alcotest.(check bool) "full answer cached" true r3.Core.Frontend.cached;
  Alcotest.(check bool) "replays the healthy ranking" true
    (fingerprint r3.Core.Frontend.ranked = fingerprint r2.Core.Frontend.ranked)

(* --- churn coherence ----------------------------------------------- *)

let test_torture_cache () =
  let o = Core.Torture.run_cache () in
  if not (Core.Torture.ok o) then
    Alcotest.failf "cache torture: %s" (Format.asprintf "%a" Core.Torture.pp o)

(* Satellite property: under random add/delete interleavings, across
   the lex/stem presets, the cached read path equals the uncached one
   at every published epoch, and collection leaves no cache entry
   tagged with a collected epoch. *)
let vocab = [| "alpha"; "beta"; "gamma"; "delta"; "the"; "of"; "retrieval"; "stores" |]

let gen_churn =
  QCheck.Gen.(
    pair (int_range 0 3)
      (list_size (int_range 2 10) (list_size (int_range 1 8) (int_range 0 7))))

let prop_churn_coherence =
  QCheck.Test.make ~name:"cached = uncached at every epoch under churn" ~count:25
    (QCheck.make gen_churn) (fun (preset, docs) ->
      let stem = preset land 1 = 1 in
      let stopwords = if preset land 2 = 2 then Some Inquery.Stopwords.default else None in
      let vfs = Vfs.create () in
      let live = Core.Live_index.create_mneme ?stopwords ~stem vfs ~file:"churn.mneme" () in
      let rc = Core.Result_cache.create ~name:"p" () in
      let bc = Util.Block_cache.create ~name:"p" () in
      Core.Live_index.on_publish live (fun ~epoch ->
          ignore (Core.Result_cache.retain rc ~keep:(fun e -> e = epoch));
          ignore (Util.Block_cache.retain bc ~keep:(fun e -> e = epoch)));
      let queries = [ "alpha"; "#sum( retrieval the gamma )" ] in
      let ok = ref true in
      let check_epoch () =
        let epoch = Core.Live_index.epoch live in
        (* Keep the block cache populated under the current epoch so the
           publication hook has real entries to invalidate. *)
        Util.Block_cache.insert bc ~src:1 ~blk:0 ~epoch ~docs:[| epoch |] ~tfs:[| 1 |];
        List.iter
          (fun q ->
            let golden = fingerprint (Core.Live_index.search ~top_k:5 live q) in
            (match Core.Result_cache.find rc ~key:q ~epoch with
            | Some cached -> if cached <> golden then ok := false
            | None ->
              Core.Result_cache.insert rc ~key:q ~epoch ~coverage:Core.Result_cache.Full
                ~cost:64 golden);
            (* Re-probe: the entry just filled (or verified) must hit
               and still match. *)
            match Core.Result_cache.find rc ~key:q ~epoch with
            | Some cached -> if cached <> golden then ok := false
            | None -> ok := false)
          queries
      in
      let ids = ref [] in
      List.iteri
        (fun i words ->
          let text = String.concat " " (List.map (Array.get vocab) words) in
          let id = Core.Live_index.add_document live text in
          ids := id :: !ids;
          check_epoch ();
          if i mod 3 = 2 then begin
            (match !ids with
            | _ :: older :: _ -> ignore (Core.Live_index.delete_document live older)
            | _ -> ());
            check_epoch ()
          end)
        docs;
      ignore (Core.Live_index.gc live);
      let final = Core.Live_index.epoch live in
      List.iter (fun e -> if e <> final then ok := false) (Core.Result_cache.epochs rc);
      List.iter (fun e -> if e <> final then ok := false) (Util.Block_cache.epochs bc);
      !ok)

let suite =
  [
    Alcotest.test_case "block cache: probe, fill, key separation" `Quick test_block_cache_basics;
    Alcotest.test_case "block cache: byte-budget lru" `Quick test_block_cache_evicts_lru;
    Alcotest.test_case "block cache: retain by epoch" `Quick test_block_cache_retain;
    Alcotest.test_case "result cache: epoch mismatch purges" `Quick test_result_cache_epoch_purge;
    Alcotest.test_case "result cache: partial never served as full" `Quick
      test_result_cache_coverage;
    Alcotest.test_case "result cache: byte-budget lru" `Quick test_result_cache_budget;
    Alcotest.test_case "cache stats merge across tiers" `Quick test_cache_stats_merge;
    Alcotest.test_case "frontend: result-cache hit replays bit-identically" `Quick
      test_frontend_result_cache;
    Alcotest.test_case "frontend: block cache cuts decodes on reuse" `Quick
      test_frontend_block_cache;
    Alcotest.test_case "frontend: stalled deadline result never cached" `Quick
      test_stalled_deadline_result_never_cached;
    Alcotest.test_case "torture: coherence under churn" `Slow test_torture_cache;
    QCheck_alcotest.to_alcotest prop_churn_coherence;
  ]
