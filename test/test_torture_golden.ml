(* Golden tallies: every torture family is deterministic, so its counts
   at a fixed configuration are a regression oracle in their own right.
   The other torture tests check the invariants (no problems, every point
   audited); these pin the exact numbers, so a refactor of the harness
   that silently skipped or double-counted replays shows up here. *)

module T = Core.Torture

let tallies = Alcotest.(list (pair string int))

let test_store () =
  let o = T.run_sweep (T.prepare ~seed:42 ~docs:10 ~update_batches:3 ()) in
  Alcotest.check tallies "store tallies"
    [ ("points", 50); ("opened", 44); ("unopenable", 6); ("replayed", 29); ("discarded", 21);
      ("clean", 0) ]
    o.T.tallies

let test_failover () =
  let o = T.run_sweep (T.prepare_failover ~seed:42 ~docs:10 ~batches:3 ~standbys:2 ()) in
  Alcotest.check tallies "failover tallies"
    [ ("points", 34); ("promoted", 33); ("empty", 1) ]
    o.T.tallies

let test_scrub () =
  let o = T.run_scrub ~seed:42 ~docs:8 ~batches:2 ~standbys:1 () in
  Alcotest.check tallies "scrub tallies"
    [ ("segments", 4); ("members", 2); ("healed", 4); ("crash_points", 12) ]
    o.T.tallies

let test_epoch () =
  let o = T.run_sweep (T.prepare_epoch ~seed:42 ~docs:6 ()) in
  Alcotest.check tallies "epoch tallies"
    [ ("points", 61); ("opened", 60); ("unopenable", 1); ("wholly_old", 31); ("wholly_new", 29);
      ("replayed", 37); ("discarded", 24); ("clean", 0); ("gc_reclaimed_objects", 60) ]
    o.T.tallies

let test_ingest () =
  let o = T.run_sweep (T.prepare_ingest ~seed:42 ~docs:8 ()) in
  Alcotest.check tallies "ingest tallies"
    [ ("points", 39); ("acked_ops", 10); ("folds", 4); ("opened", 39); ("unopenable", 0);
      ("wholly_old", 27); ("wholly_new", 12); ("replayed", 18); ("discarded", 11); ("clean", 10);
      ("wal_redelivered", 33); ("gc_reclaimed_objects", 70) ]
    o.T.tallies

let test_shard () =
  let o = T.run_shard ~seed:7 ~docs:16 ~shards:2 ~replicas:2 () in
  Alcotest.check tallies "shard tallies"
    [ ("shards", 2); ("members", 4); ("points", 6); ("runs", 22); ("full", 60); ("partial", 6);
      ("overshoots", 0); ("truncations", 0) ]
    o.T.tallies

let test_cache () =
  let o = T.run_cache () in
  Alcotest.check tallies "cache tallies"
    [ ("mutations", 24); ("comparisons", 504); ("result_hits", 72); ("block_hits", 20);
      ("invalidations", 73) ]
    o.T.tallies

(* The shared printer and verdict: a golden-run problem is reported as
   such and fails the run, like any crash-point problem. *)
let test_pp_and_ok () =
  let clean = { T.family = "demo"; tallies = [ ("points", 2); ("opened", 1) ]; problems = [] } in
  Alcotest.(check bool) "no problems is ok" true (T.ok clean);
  Alcotest.(check string) "tallies on one line" "demo: points 2, opened 1"
    (Format.asprintf "%a" T.pp clean);
  Alcotest.(check int) "tally lookup" 1 (T.tally clean "opened");
  let bad = { clean with T.problems = [ (0, "lost a pin"); (2, "torn root") ] } in
  Alcotest.(check bool) "a golden-run problem is not ok" false (T.ok bad);
  Alcotest.(check string) "problems by point"
    "demo: points 2, opened 1\n2 problem(s):\n  golden run: lost a pin\n  point 2: torn root"
    (Format.asprintf "%a" T.pp bad);
  Alcotest.(check string) "json"
    "{\n  \"points\": 2,\n  \"opened\": 1,\n  \"problems\": [\n    {\"point\": 0, \"problem\": \"lost a pin\"},\n    {\"point\": 2, \"problem\": \"torn root\"}\n  ]\n}"
    (Util.Json.to_string (T.to_json bad));
  Alcotest.(check string) "json, no problems"
    "{\n  \"points\": 2,\n  \"opened\": 1,\n  \"problems\": []\n}"
    (Util.Json.to_string (T.to_json clean))

let suite =
  [
    Alcotest.test_case "pp and ok" `Quick test_pp_and_ok;
    Alcotest.test_case "store" `Quick test_store;
    Alcotest.test_case "failover" `Quick test_failover;
    Alcotest.test_case "scrub" `Quick test_scrub;
    Alcotest.test_case "epoch" `Quick test_epoch;
    Alcotest.test_case "ingest" `Quick test_ingest;
    Alcotest.test_case "shard" `Quick test_shard;
    Alcotest.test_case "cache" `Quick test_cache;
  ]
