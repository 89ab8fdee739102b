(* Doc-partitioned scatter-gather: bit-identity with the unsharded
   engine on every preset, coverage accounting under dead shards, both
   failure policies, and the deadline overshoot bound when one shard
   stalls.  [REPRO_TEST_DOMAINS] (used by CI) pins the shard counts the
   preset property exercises. *)

let shard_counts =
  match Sys.getenv_opt "REPRO_TEST_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d > 0 -> [ d ]
    | _ -> [ 1; 2; 4; 8 ])
  | None -> [ 1; 2; 4; 8 ]

let pairs ranked =
  List.map (fun r -> (r.Inquery.Ranking.doc, r.Inquery.Ranking.score)) ranked

let firstk k l = List.filteri (fun i _ -> i < k) l

(* --- The preset property: merged top-k bit-identical to unsharded --- *)

let scale = 0.01
let preset_names = [ "cacm"; "legal"; "tipster1"; "tipster" ]
let prepared_tbl : (string, Core.Experiment.prepared) Hashtbl.t = Hashtbl.create 4

let prepared_of name =
  match Hashtbl.find_opt prepared_tbl name with
  | Some p -> p
  | None ->
    let p = Core.Experiment.prepare (Collections.Presets.find ~scale name) in
    Hashtbl.add prepared_tbl name p;
    p

let queries_of name =
  let model = (prepared_of name).Core.Experiment.model in
  let spec = Collections.Presets.topk_queries model in
  firstk 6 (Collections.Querygen.generate model spec)

let coord_tbl : (string * int * bool, Core.Shard.t) Hashtbl.t = Hashtbl.create 8

let coord_of name shards global_bound =
  match Hashtbl.find_opt coord_tbl (name, shards, global_bound) with
  | Some c -> c
  | None ->
    let c =
      Core.Shard.create ~shard_replicas:1 ~global_bound ~shards (prepared_of name)
    in
    Hashtbl.add coord_tbl (name, shards, global_bound) c;
    c

(* Whatever the preset, the shard count, or the pruning mode (the
   global-bound floor drives the shards' pruned [eval_topk] path; with
   the bound off they evaluate exactly), the merged scatter-gather
   top-k carries the same documents and bit-identical beliefs as the
   unsharded index. *)
let prop_sharded_matches_unsharded =
  QCheck.Test.make ~name:"sharded top-k bit-identical to unsharded (all presets)" ~count:16
    QCheck.(make Gen.(triple (oneofl preset_names) (oneofl shard_counts) bool))
    (fun (name, shards, global_bound) ->
      let p = prepared_of name in
      let shards = min shards p.Core.Experiment.model.Collections.Docmodel.n_docs in
      let engine = Core.Experiment.open_engine p Core.Experiment.Mneme_cache in
      let c = coord_of name shards global_bound in
      List.for_all
        (fun q ->
          let oracle =
            pairs (Core.Engine.run_topk_string ~k:10 engine q).Core.Engine.topk_ranked
          in
          match Core.Shard.run_query_string ~top_k:10 c q with
          | Error _ -> false
          | Ok res ->
            res.Core.Shard.complete
            && Core.Shard.full_coverage res.Core.Shard.coverage
            && pairs res.Core.Shard.ranked = oracle)
        (queries_of name))

(* --- Fault scenarios over a small dedicated collection -------------- *)

let model =
  Collections.Docmodel.make ~name:"shard-test" ~n_docs:24 ~core_vocab:120
    ~mean_doc_len:30.0 ~hapax_prob:0.05 ~seed:11 ()

let prepared = lazy (Core.Experiment.prepare model)

let big_query =
  let t r = Collections.Synth.core_term ~rank:r in
  Printf.sprintf "#sum( %s %s %s %s )" (t 1) (t 2) (t 3) (t 4)

(* The full above-baseline unsharded ranking: restricting it to the
   surviving doc ranges yields the exact partial-result oracle. *)
let full_oracle () =
  let p = Lazy.force prepared in
  let engine = Core.Experiment.open_engine p Core.Experiment.Mneme_cache in
  pairs
    (Core.Engine.run_topk_string ~plan:Inquery.Planner.(Forced Exhaustive) ~k:24 engine big_query)
      .Core.Engine.topk_ranked

let restrict ranges l =
  List.filter (fun (d, _) -> List.exists (fun (lo, hi) -> d >= lo && d < hi) ranges) l

(* Fresh two-shard coordinator with transient buffer pools, so a purge
   of the OS caches makes every fetch a physical, faultable I/O. *)
let make ?policy () =
  let p = Lazy.force prepared in
  Core.Shard.create ~shard_replicas:1 ?policy ~buffers:Core.Buffer_sizing.no_cache
    ~shards:2 p

let chill c =
  List.iter
    (fun s ->
      let fe = Core.Shard.shard_frontend c ~shard:s in
      List.iter
        (fun r -> Vfs.purge_os_cache (Core.Frontend.replica_vfs fe ~name:r))
        (Core.Shard.replica_names c ~shard:s))
    (Core.Shard.shard_names c)

let kill c shard =
  let fe = Core.Shard.shard_frontend c ~shard in
  List.iter
    (fun r -> Vfs.set_fault (Core.Frontend.replica_vfs fe ~name:r) (Vfs.Fault.crash_at_io 1))
    (Core.Shard.replica_names c ~shard)

let report_of res shard =
  match
    List.find_opt (fun r -> String.equal r.Core.Shard.r_shard shard) res.Core.Shard.reports
  with
  | Some r -> r
  | None -> Alcotest.fail (shard ^ " missing from the reports")

(* Best_effort 1.0 with a dead shard: a typed coverage error, never a
   silently truncated Ok. *)
let test_best_effort_below_min_is_typed_error () =
  let c = make () (* Best_effort 1.0 is the default *) in
  kill c "shard0";
  chill c;
  match Core.Shard.run_query_string ~top_k:10 c big_query with
  | Ok res ->
    Alcotest.fail
      (Printf.sprintf "dead shard served a silently truncated ranking (%d docs, complete=%b)"
         (List.length res.Core.Shard.ranked) res.Core.Shard.complete)
  | Error (Core.Shard.Shard_failed _ as e) ->
    Alcotest.fail ("expected a coverage error, got: " ^ Core.Shard.error_message e)
  | Error (Core.Shard.Coverage_below_min { coverage; fraction; min_coverage }) ->
    Alcotest.(check int) "one shard answered" 1 coverage.Core.Shard.answered;
    Alcotest.(check int) "one shard shed" 1 coverage.Core.Shard.shed;
    Alcotest.(check int) "no degraded shard" 0 coverage.Core.Shard.degraded;
    Alcotest.(check (float 1e-9)) "half the documents covered" 0.5 fraction;
    Alcotest.(check (float 1e-9)) "the policy floor" 1.0 min_coverage;
    Alcotest.(check bool) "message names the shortfall" true
      (String.length (Core.Shard.error_message (Core.Shard.Coverage_below_min
         { coverage; fraction; min_coverage })) > 0)

(* Best_effort 0.0: the partial ranking is exactly the unsharded index
   restricted to the surviving range, with honest coverage accounting
   and a retried shard. *)
let test_best_effort_partial_is_exact_restriction () =
  let c = make ~policy:(Core.Shard.Best_effort 0.0) () in
  kill c "shard0";
  chill c;
  match Core.Shard.run_query_string ~top_k:10 c big_query with
  | Error e -> Alcotest.fail (Core.Shard.error_message e)
  | Ok res ->
    Alcotest.(check bool) "not complete" false res.Core.Shard.complete;
    let cov = res.Core.Shard.coverage in
    Alcotest.(check int) "2 shards total" 2 cov.Core.Shard.shards_total;
    Alcotest.(check int) "one answered" 1 cov.Core.Shard.answered;
    Alcotest.(check int) "one shed" 1 cov.Core.Shard.shed;
    let lo, hi = Core.Shard.shard_range c ~shard:"shard1" in
    Alcotest.(check int) "covered docs = surviving range" (hi - lo)
      cov.Core.Shard.docs_covered;
    let rep = report_of res "shard0" in
    (match rep.Core.Shard.r_status with
    | Core.Shard.Shed _ -> ()
    | _ -> Alcotest.fail "dead shard not reported shed");
    Alcotest.(check bool) "dead shard was retried" true (rep.Core.Shard.r_attempts >= 2);
    Alcotest.(check bool) "partial ranking = restricted unsharded ranking" true
      (pairs res.Core.Shard.ranked = firstk 10 (restrict [ (lo, hi) ] (full_oracle ())))

(* Fail_fast: the first failing shard surfaces as a typed error. *)
let test_fail_fast_surfaces_first_shard_error () =
  let c = make ~policy:Core.Shard.Fail_fast () in
  kill c "shard0";
  chill c;
  match Core.Shard.run_query_string ~top_k:10 c big_query with
  | Ok _ -> Alcotest.fail "Fail_fast served despite a dead shard"
  | Error (Core.Shard.Coverage_below_min _) ->
    Alcotest.fail "Fail_fast reported coverage instead of the shard error"
  | Error (Core.Shard.Shard_failed { shard; attempts; reason }) ->
    Alcotest.(check string) "the dead shard is named" "shard0" shard;
    Alcotest.(check bool) "retried before failing" true (attempts >= 2);
    Alcotest.(check bool) "a reason is carried" true (String.length reason > 0)

(* The satellite regression: a stalled shard cannot block the merged
   response.  One shard's device is slowed below the hedge threshold;
   under a deadline the healthy shard meets, the merge returns the
   healthy shard's exact restriction and overshoots the deadline by at
   most one in-flight fetch. *)
let test_stalled_shard_cannot_block_merge () =
  let clean = make ~policy:(Core.Shard.Best_effort 0.0) () in
  chill clean;
  let clean_ms =
    match Core.Shard.run_query_string ~top_k:10 clean big_query with
    | Ok res -> res.Core.Shard.elapsed_ms
    | Error e -> Alcotest.fail (Core.Shard.error_message e)
  in
  let brown_ms = 40.0 (* below the 60 ms hedge threshold: a pure slowdown *) in
  let c = make ~policy:(Core.Shard.Best_effort 0.0) () in
  let fe = Core.Shard.shard_frontend c ~shard:"shard0" in
  List.iter
    (fun r ->
      Vfs.set_fault
        (Core.Frontend.replica_vfs fe ~name:r)
        (Vfs.Fault.degraded_device ~file:"shard0.mneme" ~ms:brown_ms))
    (Core.Shard.replica_names c ~shard:"shard0");
  chill c;
  let slow_ms =
    match Core.Shard.run_query_string ~top_k:10 c big_query with
    | Ok res -> res.Core.Shard.elapsed_ms
    | Error e -> Alcotest.fail (Core.Shard.error_message e)
  in
  Alcotest.(check bool)
    (Printf.sprintf "the stall slows the undeadlined scatter (%.2f > %.2f)" slow_ms clean_ms)
    true
    (slow_ms > clean_ms +. (0.5 *. brown_ms));
  (* A deadline between the clean and the stalled latency: the healthy
     shard answers, the stalled one must be cut. *)
  let deadline = clean_ms +. (0.5 *. (slow_ms -. clean_ms)) in
  chill c;
  match Core.Shard.run_query_string ~top_k:10 ~deadline_ms:deadline c big_query with
  | Error e -> Alcotest.fail (Core.Shard.error_message e)
  | Ok res ->
    Alcotest.(check bool) "partial, not blocked" false res.Core.Shard.complete;
    let rep = report_of res "shard0" in
    (match rep.Core.Shard.r_status with
    | Core.Shard.Degraded _ -> ()
    | Core.Shard.Answered -> Alcotest.fail "stalled shard claims a full answer"
    | Core.Shard.Shed _ -> Alcotest.fail "slowdown was misclassified as a device failure");
    Alcotest.(check bool) "deadline recorded" true rep.Core.Shard.r_deadline_hit;
    (match (report_of res "shard1").Core.Shard.r_status with
    | Core.Shard.Answered -> ()
    | _ -> Alcotest.fail "healthy shard failed to answer");
    let allow = brown_ms +. clean_ms +. 1.0 in
    Alcotest.(check bool)
      (Printf.sprintf "merged response within deadline + one fetch (%.2f <= %.2f + %.2f)"
         res.Core.Shard.elapsed_ms deadline allow)
      true
      (res.Core.Shard.elapsed_ms <= deadline +. allow);
    let lo, hi = Core.Shard.shard_range c ~shard:"shard1" in
    Alcotest.(check bool) "merged ranking = healthy shard's exact restriction" true
      (pairs res.Core.Shard.ranked = firstk 10 (restrict [ (lo, hi) ] (full_oracle ())))

let test_validation () =
  let p = Lazy.force prepared in
  let invalid f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "zero shards" true
    (invalid (fun () -> Core.Shard.create ~shards:0 p));
  Alcotest.(check bool) "zero replicas" true
    (invalid (fun () -> Core.Shard.create ~shard_replicas:0 ~shards:1 p));
  Alcotest.(check bool) "more shards than documents" true
    (invalid (fun () -> Core.Shard.create ~shards:1000 p));
  Alcotest.(check bool) "negative retries" true
    (invalid (fun () -> Core.Shard.create ~retries:(-1) ~shards:1 p));
  Alcotest.(check bool) "coverage floor above 1" true
    (invalid (fun () -> Core.Shard.create ~policy:(Core.Shard.Best_effort 1.5) ~shards:1 p));
  let c = make () in
  Alcotest.(check bool) "non-positive deadline" true
    (invalid (fun () -> Core.Shard.run_query_string ~deadline_ms:0.0 c big_query));
  Alcotest.(check (list string)) "shard names in range order" [ "shard0"; "shard1" ]
    (Core.Shard.shard_names c);
  let lo0, hi0 = Core.Shard.shard_range c ~shard:"shard0" in
  let lo1, hi1 = Core.Shard.shard_range c ~shard:"shard1" in
  Alcotest.(check bool) "ranges partition the collection" true
    (lo0 = 0 && hi0 = lo1 && hi1 = Core.Shard.doc_count c)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_sharded_matches_unsharded;
    Alcotest.test_case "Best_effort below min is a typed error" `Quick
      test_best_effort_below_min_is_typed_error;
    Alcotest.test_case "partial result is the exact restriction" `Quick
      test_best_effort_partial_is_exact_restriction;
    Alcotest.test_case "Fail_fast surfaces the first shard error" `Quick
      test_fail_fast_surfaces_first_shard_error;
    Alcotest.test_case "stalled shard cannot block the merge" `Quick
      test_stalled_shard_cannot_block_merge;
    Alcotest.test_case "validation and ranges" `Quick test_validation;
  ]
