(* Command-line driver for the reproduction: regenerate any table or
   figure, inspect a collection, or run ad-hoc queries.

   dune exec bin/repro.exe -- tables --scale 0.1
   dune exec bin/repro.exe -- stats legal
   dune exec bin/repro.exe -- run cacm --set 3 --version cache
   dune exec bin/repro.exe -- query cacm "#phrase( ba be )" *)

open Cmdliner
module J = Util.Json

let scale_arg =
  let doc = "Collection scale factor (1.0 = calibrated defaults)." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"FACTOR" ~doc)

let collection_arg =
  let doc = "Collection preset: cacm, legal, tipster1 or tipster." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"COLLECTION" ~doc)

let progress msg = Printf.eprintf "%s\n%!" msg

(* --- shared plumbing ---------------------------------------------- *)

(* Arguments the measuring and torture subcommands share; each passes
   its own doc string where the wording differs. *)

let collections_arg =
  let doc = "Collections to measure (default: all four)." in
  Arg.(
    value
    & pos_all string [ "cacm"; "legal"; "tipster1"; "tipster" ]
    & info [] ~docv:"COLLECTION" ~doc)

let k_arg doc = Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc)
let queries_arg doc = Arg.(value & opt (some int) None & info [ "queries" ] ~docv:"N" ~doc)
let audit_arg doc = Arg.(value & flag & info [ "audit" ] ~doc)
let json_arg doc = Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let seed_arg =
  let doc = "PRNG seed for the workload." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let docs_arg default doc = Arg.(value & opt int default & info [ "docs" ] ~docv:"N" ~doc)
let batches_arg doc = Arg.(value & opt int 3 & info [ "batches" ] ~docv:"N" ~doc)

let standbys_arg =
  let doc = "Standby replicas shipping the primary's journal." in
  Arg.(value & opt int 2 & info [ "standbys" ] ~docv:"N" ~doc)

let usage_error cmd msg =
  Printf.eprintf "%s: %s\n" cmd msg;
  exit 2

let audit_failed cmd name msg q =
  Printf.eprintf "%s: AUDIT FAILED on %s: %s\n  query: %s\n" cmd name msg q;
  exit 1

(* Build collection [name] and the first [limit] queries of the set
   [spec] draws for it. *)
let load ~scale ~limit spec name =
  let model = Collections.Presets.find ~scale name in
  let prepared = Core.Experiment.prepare ~progress model in
  let queries = Collections.Querygen.generate model (spec model) in
  let queries =
    match limit with None -> queries | Some n -> List.filteri (fun i _ -> i < n) queries
  in
  (model, prepared, queries)

let ratio a b = if b > 0 then float_of_int a /. float_of_int b else infinity
let table = Core.Run_report.table

(* The params every query-set sweep records. *)
let sweep_params ~scale ~limit ~audit =
  [
    ("scale", J.Float (3, scale));
    ("query_limit", Option.fold ~none:J.Null ~some:(fun n -> J.Int n) limit);
    ("audited", J.Bool audit);
  ]

(* Every measuring subcommand ends here: print the report's tables,
   write its BENCH file when --json asks, and exit 1 when its audit or
   the caller's own check ([failed]) found a problem. *)
let emit ?(failed = false) json command params tables audit =
  let r = { Core.Run_report.command; params; tables; audit } in
  print_string (Core.Run_report.render r);
  Option.iter
    (fun file ->
      Out_channel.with_open_text file (fun oc ->
          Printf.fprintf oc "%s\n" (J.to_string (Core.Run_report.to_json r)));
      Printf.printf "wrote %s\n" file)
    json;
  if failed || Core.Run_report.failed r then exit 1

(* The torture sweeps print their [Core.Torture.outcome] alone. *)
let print_outcome o = Format.printf "%a@." Core.Torture.pp o

(* --- tables ------------------------------------------------------- *)

let tables_cmd =
  let only =
    let doc =
      "Emit only the listed item(s): table1..table6, fig1..fig3 (repeatable)."
    in
    Arg.(value & opt_all string [] & info [ "only" ] ~docv:"ID" ~doc)
  in
  let run scale only =
    let ctx = Core.Paper.create_ctx ~progress ~scale () in
    let items =
      [
        ("fig1", fun () -> ("Figure 1: cumulative inverted-list size distribution (Legal)", Core.Paper.fig1 ctx));
        ("table1", fun () -> ("Table 1: document collection statistics (sizes in KB)", Core.Paper.table1 ctx));
        ("fig2", fun () -> ("Figure 2: frequency of use by record size, Legal query set 2", Core.Paper.fig2 ctx));
        ("table2", fun () -> ("Table 2: Mneme buffer sizes (KB)", Core.Paper.table2 ctx));
        ("table3", fun () -> ("Table 3: wall-clock times (seconds, simulated)", Core.Paper.table3 ctx));
        ("table4", fun () -> ("Table 4: system CPU plus I/O times (seconds, simulated)", Core.Paper.table4 ctx));
        ("table5", fun () -> ("Table 5: I/O statistics", Core.Paper.table5 ctx));
        ("table6", fun () -> ("Table 6: buffer hit rates (Mneme, Cache)", Core.Paper.table6 ctx));
        ("fig3", fun () -> ("Figure 3: large-object buffer hit rate vs size", Core.Paper.fig3 ctx));
      ]
    in
    let wanted =
      match only with
      | [] -> items
      | ids ->
        List.filter_map
          (fun id ->
            match List.assoc_opt id items with
            | Some f -> Some (id, f)
            | None ->
              Printf.eprintf "unknown item %s (use table1..table6, fig1..fig3)\n" id;
              exit 2)
          ids
    in
    List.iter
      (fun (_, f) ->
        let label, table = f () in
        print_newline ();
        print_endline label;
        Util.Tables.print table)
      wanted
  in
  let doc = "Regenerate the paper's tables and figures." in
  Cmd.v (Cmd.info "tables" ~doc) Term.(const run $ scale_arg $ only)

(* --- ablations ------------------------------------------------------ *)

let ablations_cmd =
  let run scale =
    let ctx = Core.Ablation.create ~progress ~scale () in
    List.iter
      (fun (label, table) ->
        print_newline ();
        print_endline label;
        Util.Tables.print table)
      (Core.Ablation.all ctx)
  in
  let doc = "Run the design-choice ablation studies." in
  Cmd.v (Cmd.info "ablations" ~doc) Term.(const run $ scale_arg)

(* --- stats -------------------------------------------------------- *)

let stats_cmd =
  let run scale name =
    let model = Collections.Presets.find ~scale name in
    let prepared = Core.Experiment.prepare ~progress model in
    let ix = prepared.Core.Experiment.indexer in
    Printf.printf "collection        %s\n" name;
    Printf.printf "documents         %d\n" (Inquery.Indexer.document_count ix);
    Printf.printf "collection bytes  %d\n" (Inquery.Indexer.collection_bytes ix);
    Printf.printf "distinct terms    %d\n" (Inquery.Indexer.term_count ix);
    Printf.printf "postings          %d\n" (Inquery.Indexer.posting_count ix);
    Printf.printf "occurrences       %d\n" (Inquery.Indexer.occurrence_count ix);
    Printf.printf "avg doc length    %.1f\n" (Inquery.Indexer.avg_doc_length ix);
    Printf.printf "largest record    %d bytes\n" prepared.Core.Experiment.largest_record;
    Printf.printf "btree file        %d KB\n" (prepared.Core.Experiment.btree_size / 1024);
    Printf.printf "mneme file        %d KB\n" (prepared.Core.Experiment.mneme_size / 1024);
    let s, m, l = Core.Report.size_census prepared in
    Printf.printf "partition         %d small / %d medium / %d large\n" s m l
  in
  let doc = "Build a collection and print its index statistics." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ scale_arg $ collection_arg)

(* --- run ---------------------------------------------------------- *)

let version_of_string = function
  | "btree" -> Ok Core.Experiment.Btree
  | "nocache" -> Ok Core.Experiment.Mneme_no_cache
  | "cache" -> Ok Core.Experiment.Mneme_cache
  | other -> Error (Printf.sprintf "unknown version %s (btree | nocache | cache)" other)

let run_cmd =
  let set_arg =
    let doc = "Query set number (as in the paper)." in
    Arg.(value & opt string "1" & info [ "set"; "s" ] ~docv:"SET" ~doc)
  in
  let version_arg =
    let doc = "Index version: btree, nocache or cache." in
    Arg.(value & opt string "cache" & info [ "version"; "v" ] ~docv:"VERSION" ~doc)
  in
  let run scale name set version =
    match version_of_string version with
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
    | Ok version ->
      let ctx = Core.Paper.create_ctx ~progress ~scale () in
      let r = Core.Paper.run ctx name set version in
      Printf.printf "collection   %s, query set %s, %s\n" name set
        (Core.Experiment.version_name version);
      Printf.printf "queries      %d\n" r.Core.Experiment.n_queries;
      Printf.printf "wall         %.2f s (simulated)\n" r.Core.Experiment.wall_s;
      Printf.printf "sys+io       %.2f s\n" r.Core.Experiment.sys_io_s;
      Printf.printf "engine cpu   %.2f s\n" r.Core.Experiment.engine_cpu_s;
      Printf.printf "I            %d disk inputs\n" r.Core.Experiment.io_inputs;
      Printf.printf "A            %.2f file accesses / lookup\n"
        (Core.Experiment.accesses_per_lookup r);
      Printf.printf "B            %.0f KB read\n" r.Core.Experiment.kbytes_read;
      List.iter
        (fun (pool, s) ->
          if s.Mneme.Buffer_pool.refs > 0 then
            Printf.printf "%-6s buffer %d refs, %d hits\n" pool s.Mneme.Buffer_pool.refs
              s.Mneme.Buffer_pool.hits)
        r.Core.Experiment.buffers
  in
  let doc = "Run one (collection, query set, version) experiment." in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ scale_arg $ collection_arg $ set_arg $ version_arg)

(* --- fsck --------------------------------------------------------- *)

let fsck_cmd =
  let run scale name =
    let model = Collections.Presets.find ~scale name in
    let prepared = Core.Experiment.prepare ~progress model in
    let store =
      Mneme.Store.open_existing prepared.Core.Experiment.vfs prepared.Core.Experiment.mneme_file
    in
    List.iter
      (fun pname ->
        Mneme.Store.attach_buffer (Mneme.Store.pool store pname)
          (Mneme.Buffer_pool.create ~name:pname ~capacity:1_048_576 ()))
      [ "small"; "medium"; "large" ];
    (* Every object in the index file is a postings record, so fsck can
       validate payloads format-aware: header consistency, skip-table
       invariants, gap monotonicity. *)
    let report = Mneme.Check.run ~object_check:Inquery.Postings.validate store in
    Format.printf "%a@." Mneme.Check.pp_report report;
    let catalog = Core.Catalog.load prepared.Core.Experiment.vfs ~file:prepared.Core.Experiment.catalog_file in
    let fetch entry =
      let locator = entry.Inquery.Dictionary.locator in
      if locator < 0 then None else Mneme.Store.get_opt store locator
    in
    let problems = Core.Catalog.verify_records catalog ~fetch in
    (match problems with
    | [] -> Printf.printf "catalog: %d terms cross-checked, clean\n" (Inquery.Dictionary.size catalog.Core.Catalog.dict)
    | ps ->
      Printf.printf "catalog: %d problem(s):\n" (List.length ps);
      List.iter (fun (term, what) -> Printf.printf "  %s: %s\n" term what) ps);
    if not (Mneme.Check.ok report) || problems <> [] then exit 1
  in
  let doc =
    "Build a collection's Mneme store and verify its integrity, \
     including postings-format validation of every stored record and a \
     catalog/record cross-check."
  in
  Cmd.v (Cmd.info "fsck" ~doc) Term.(const run $ scale_arg $ collection_arg)

(* --- topk --------------------------------------------------------- *)

let topk_cmd =
  let run scale names k limit audit json =
    if k <= 0 then usage_error "topk" "--k must be positive";
    let row name =
      let _, prepared, queries = load ~scale ~limit Collections.Presets.topk_queries name in
      (* Exhaustive baseline and pruned run use separate engine
         sessions so buffer state cannot leak between them. *)
      let ex = Core.Experiment.open_engine prepared Core.Experiment.Mneme_cache in
      let exhaustive =
        List.fold_left
          (fun acc q ->
            let r =
              Core.Engine.run_topk_string
                ~plan:(Inquery.Planner.Forced Inquery.Planner.Exhaustive) ~k ex q
            in
            acc + r.Core.Engine.topk_postings_decoded)
          0 queries
      in
      let engine = Core.Experiment.open_engine prepared Core.Experiment.Mneme_cache in
      let rs =
        List.map
          (fun q ->
            try Core.Engine.run_topk_string ~audit ~k engine q
            with Inquery.Infnet.Audit_mismatch msg -> audit_failed "topk" name msg q)
          queries
      in
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
      let decoded = sum (fun r -> r.Core.Engine.topk_postings_decoded) in
      [
        J.String name;
        J.Int (List.length queries);
        J.Int (sum (fun r -> r.Core.Engine.topk_postings_total));
        J.Int exhaustive;
        J.Int decoded;
        J.Float (2, ratio exhaustive decoded);
        J.Int (sum (fun r -> r.Core.Engine.topk_blocks_skipped));
        J.Int (sum (fun r -> r.Core.Engine.topk_seeks));
        J.Int (sum (fun r -> if r.Core.Engine.topk_pruned then 1 else 0));
      ]
    in
    emit json "topk"
      (("k", J.Int k) :: sweep_params ~scale ~limit ~audit)
      [
        table "collections"
          [ "collection"; "queries"; "postings_total"; "postings_decoded_exhaustive";
            "postings_decoded_pruned"; "ratio"; "blocks_skipped"; "seeks"; "queries_pruned" ]
          (List.map row names);
      ]
      None
  in
  let doc =
    "Measure max-score top-k pruning against exhaustive \
     document-at-a-time evaluation on the flat (phrase-free) query sets: \
     postings decoded, skip blocks jumped, and optionally a \
     result-identity audit."
  in
  Cmd.v (Cmd.info "topk" ~doc)
    Term.(
      const run $ scale_arg $ collections_arg
      $ k_arg "Result-list depth for the pruned evaluator."
      $ queries_arg "Evaluate only the first N queries of each set."
      $ audit_arg
          "Re-run the exhaustive evaluator after every pruned query and fail \
           if the rankings differ in any document or belief."
      $ json_arg "Also write the per-collection numbers as JSON to FILE.")

(* --- plan --------------------------------------------------------- *)

let plan_cmd =
  let class_of q =
    match q with
    | Inquery.Query.And _ -> "conjunctive"
    | Inquery.Query.Phrase _ -> "phrase"
    | Inquery.Query.Od _ | Inquery.Query.Uw _ -> "window"
    | _ -> (
      match Inquery.Planner.shape_of q with
      | Inquery.Planner.Flat -> "flat"
      | _ -> "other")
  in
  let classes = [ "flat"; "conjunctive"; "phrase"; "window"; "other" ] in
  let run scale names k limit audit json =
    if k <= 0 then usage_error "plan" "--k must be positive";
    let per_collection name =
      let _, prepared, queries = load ~scale ~limit Collections.Presets.planner_queries name in
      let qclasses = List.map (fun q -> class_of (Inquery.Query.parse_exn q)) queries in
      (* One engine session per mode so buffer state cannot leak
         between the baseline and the measured runs. *)
      let run_mode choice =
        let engine = Core.Experiment.open_engine prepared Core.Experiment.Mneme_cache in
        List.map
          (fun q ->
            try Core.Engine.run_topk_string ~audit ~plan:choice ~k engine q
            with Inquery.Infnet.Audit_mismatch msg -> audit_failed "plan" name msg q)
          queries
      in
      let ex = run_mode (Inquery.Planner.Forced Inquery.Planner.Exhaustive) in
      let ms = run_mode (Inquery.Planner.Forced Inquery.Planner.Maxscore) in
      let it = run_mode (Inquery.Planner.Forced Inquery.Planner.Intersect) in
      let auto = run_mode Inquery.Planner.Auto in
      (* Per-class sums.  The shape-dispatch baseline is the pre-planner
         policy: flat shapes take max-score, everything else runs
         exhaustive. *)
      let class_row cls =
        let sum field rs =
          List.fold_left2
            (fun acc c r -> if String.equal c cls then acc + field r else acc)
            0 qclasses rs
        in
        let bytes r = r.Core.Engine.topk_bytes_read in
        let plans p = sum (fun r -> if r.Core.Engine.topk_plan = p then 1 else 0) auto in
        let shape = sum bytes (if String.equal cls "flat" then ms else ex) in
        let auto_bytes = sum bytes auto in
        [
          J.String name;
          J.String cls;
          J.Int (List.length (List.filter (String.equal cls) qclasses));
          J.Int (sum bytes ex);
          J.Int (sum bytes ms);
          J.Int (sum bytes it);
          J.Int shape;
          J.Int auto_bytes;
          J.Float (4, ratio shape auto_bytes);
          J.Int (sum (fun r -> r.Core.Engine.topk_est_bytes) auto);
          J.Int (plans Inquery.Planner.Maxscore);
          J.Int (plans Inquery.Planner.Intersect);
          J.Int (plans Inquery.Planner.Exhaustive);
        ]
      in
      ( [ J.String name; J.Int (List.length queries) ],
        List.filter_map
          (fun cls -> if List.mem cls qclasses then Some (class_row cls) else None)
          classes )
    in
    let results = List.map per_collection names in
    emit json "plan"
      (("k", J.Int k) :: sweep_params ~scale ~limit ~audit)
      [
        table "collections" [ "collection"; "queries" ] (List.map fst results);
        table "classes"
          [ "collection"; "class"; "queries"; "bytes_exhaustive"; "bytes_maxscore";
            "bytes_intersect"; "bytes_shape_dispatch"; "bytes_auto"; "ratio_shape_over_auto";
            "auto_est_bytes"; "auto_plans_maxscore"; "auto_plans_intersect";
            "auto_plans_exhaustive" ]
          (List.concat_map snd results);
      ]
      None
  in
  let doc =
    "Measure the cost-based query planner on the mixed-workload sets: \
     per-class record bytes decoded under the exhaustive baseline, the \
     old shape-based dispatch, and the planner's auto choice, with the \
     planner's own byte estimates alongside and an optional bit-identity \
     audit of every plan."
  in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(
      const run $ scale_arg $ collections_arg $ k_arg "Result-list depth."
      $ queries_arg "Evaluate only the first N queries of each set."
      $ audit_arg
          "Audit every run — auto and both forced plans — against the \
           exhaustive evaluator and fail unless each ranking is bit-identical."
      $ json_arg "Also write the per-class numbers as JSON to FILE.")

(* --- cache -------------------------------------------------------- *)

let cache_cmd =
  let passes_arg =
    let doc =
      "Replays of the query set (the reuse the result cache exists for); \
       every pass after the first should serve from the result cache."
    in
    Arg.(value & opt int 3 & info [ "passes" ] ~docv:"N" ~doc)
  in
  let fingerprint ranked =
    List.map
      (fun r -> (r.Inquery.Ranking.doc, Printf.sprintf "%.9f" r.Inquery.Ranking.score))
      ranked
  in
  let run scale names k limit passes audit json =
    if k <= 0 || passes <= 0 then usage_error "cache" "--k and --passes must be positive";
    let per_collection name =
      let _, prepared, queries = load ~scale ~limit Collections.Presets.topk_queries name in
      (* One frontend per configuration so neither cache state nor
         buffer state leaks between the cached run and the
         caches-off baseline.  The OS cache is purged before every
         pass in both runs, so bytes read measure what each
         configuration must physically fetch. *)
      let measure ~result_bytes ~block_bytes =
        let fe =
          Core.Frontend.of_prepared prepared ~names:[ "a" ]
            ~result_cache_bytes:result_bytes ~block_cache_bytes:block_bytes
        in
        let vfs = Core.Frontend.replica_vfs fe ~name:"a" in
        let c0 = Vfs.counters vfs in
        let decoded = ref 0 and result_hits = ref 0 in
        let rankings = ref [] in
        for _pass = 1 to passes do
          Vfs.purge_os_cache vfs;
          List.iter
            (fun q ->
              let r = Core.Frontend.run_query_string ~top_k:k fe q in
              decoded := !decoded + r.Core.Frontend.postings_decoded;
              if r.Core.Frontend.cached then incr result_hits;
              rankings := fingerprint r.Core.Frontend.ranked :: !rankings)
            queries
        done;
        let c1 = Vfs.diff_counters ~later:(Vfs.counters vfs) ~earlier:c0 in
        (fe, List.rev !rankings, !decoded, !result_hits, c1.Vfs.bytes_read)
      in
      let fe, cached_rankings, dec_on, result_hits, bytes_on =
        measure ~result_bytes:(4 * 1024 * 1024) ~block_bytes:(8 * 1024 * 1024)
      in
      let _, plain_rankings, dec_off, _, bytes_off = measure ~result_bytes:0 ~block_bytes:0 in
      if audit then
        List.iteri
          (fun i (a, b) ->
            if a <> b then begin
              Printf.eprintf
                "cache: AUDIT FAILED on %s: query %d of pass %d ranks differently with caches on\n"
                name (i mod List.length queries) (1 + (i / List.length queries));
              exit 1
            end)
          (List.combine cached_rankings plain_rankings);
      let tier (tier, s) =
        let open Util.Cache_stats in
        [ J.String name; J.String tier; J.Int s.refs; J.Int s.hits; J.Float (3, hit_rate s);
          J.Int s.evictions; J.Int s.invalidations; J.Int s.resident_bytes;
          J.Int s.resident_entries ]
      in
      ( List.map tier (Core.Frontend.cache_tiers fe),
        [ J.String name; J.Int (List.length queries); J.Int result_hits; J.Int dec_off;
          J.Int dec_on; J.Float (2, ratio dec_off dec_on); J.Int bytes_off; J.Int bytes_on;
          J.Float (2, ratio bytes_off bytes_on) ] )
    in
    let results = List.map per_collection names in
    (* The tier table is Table-6 style: the buffer pool was the paper's
       only tier; the result and block caches sit above it. *)
    emit json "cache"
      (("k", J.Int k) :: ("passes", J.Int passes) :: sweep_params ~scale ~limit ~audit)
      [
        table "tiers"
          [ "collection"; "tier"; "refs"; "hits"; "hit_rate"; "evictions"; "invalidations";
            "resident_bytes"; "resident_entries" ]
          (List.concat_map fst results);
        table "work"
          [ "collection"; "queries"; "result_cache_hits"; "postings_decoded_caches_off";
            "postings_decoded_caches_on"; "decoded_ratio"; "bytes_read_caches_off";
            "bytes_read_caches_on"; "bytes_ratio" ]
          (List.map snd results);
      ]
      (if audit then Some (Core.Torture.run_cache ()) else None)
  in
  let doc =
    "Measure the tiered read-path caches on reuse-heavy query replays: \
     per-tier (result / block / buffer) hit rates in the style of the \
     paper's Table 6, plus postings-decoded and bytes-read deltas \
     against a caches-off baseline, with an optional bit-identity audit \
     and churn torture."
  in
  Cmd.v (Cmd.info "cache" ~doc)
    Term.(
      const run $ scale_arg $ collections_arg $ k_arg "Ranked documents per query."
      $ queries_arg "Evaluate only the first N queries of each set."
      $ passes_arg
      $ audit_arg
          "Re-run every query with both caches disabled and fail unless the \
           rankings are bit-identical, then run the churn torture: random \
           add/delete mutations with pinned epochs read back through the \
           caches."
      $ json_arg "Write the per-collection numbers as JSON to $(docv).")

(* --- parallel ----------------------------------------------------- *)

let parallel_cmd =
  let domains_arg =
    let doc = "Domain counts to sweep (repeatable; default 1, 2, 4, 8)." in
    Arg.(value & opt_all int [ 1; 2; 4; 8 ] & info [ "domains"; "d" ] ~docv:"N" ~doc)
  in
  let run scale names domains limit audit json =
    if List.exists (fun d -> d <= 0) domains then
      usage_error "parallel" "every --domains must be positive";
    let rows name =
      let _, prepared, queries =
        load ~scale ~limit (fun m -> snd (List.hd (Collections.Presets.query_sets m))) name
      in
      let reports =
        List.map
          (fun d ->
            try
              Core.Parallel.run_query_set ~domains:d ~audit prepared Core.Experiment.Mneme_cache
                ~queries
            with Core.Parallel.Audit_mismatch msg ->
              Printf.eprintf "parallel: AUDIT FAILED on %s at %d domains: %s\n" name d msg;
              exit 1)
          domains
      in
      let base = match reports with r :: _ -> r.Core.Parallel.sim_makespan_ms | [] -> 0.0 in
      List.map
        (fun (r : Core.Parallel.report) ->
          let makespan = r.Core.Parallel.sim_makespan_ms in
          [ J.String name; J.Int (List.length queries); J.Int r.Core.Parallel.domains;
            J.Float (3, r.Core.Parallel.sim_serial_ms); J.Float (3, makespan);
            J.Float (3, if makespan > 0.0 then base /. makespan else 0.0);
            J.Int r.Core.Parallel.steals; J.Float (3, r.Core.Parallel.real_elapsed_ms) ])
        reports
    in
    emit json "parallel" (sweep_params ~scale ~limit ~audit)
      [
        table "scaling"
          [ "collection"; "queries"; "domains"; "sim_serial_ms"; "sim_makespan_ms"; "speedup";
            "steals"; "real_elapsed_ms" ]
          (List.concat_map rows names);
      ]
      None
  in
  let doc =
    "Serve each collection's query set across 1/2/4/8 OCaml domains — \
     one session (private buffers, file copy, clock) per domain, \
     work-stealing distribution — and report the simulated-time scaling \
     table; --audit verifies bit-identical rankings against a serial run."
  in
  Cmd.v (Cmd.info "parallel" ~doc)
    Term.(
      const run $ scale_arg $ collections_arg $ domains_arg
      $ queries_arg "Serve only the first N queries of each set."
      $ audit_arg
          "After each parallel run, re-run the set serially and fail unless \
           every ranking is bit-identical (documents and beliefs)."
      $ json_arg "Also write the scaling numbers as JSON to FILE.")

(* --- torture ------------------------------------------------------ *)

let torture_cmd =
  let run seed docs update_batches =
    if docs < 0 || update_batches < 0 then
      usage_error "torture" "--docs and --batches must be non-negative";
    let outcome = Core.Torture.(run_sweep (prepare ~seed ~docs ~update_batches ())) in
    print_outcome outcome;
    if not (Core.Torture.ok outcome) then exit 1
  in
  let doc =
    "Crash the journaled store at every physical I/O of an \
     index-build-and-update workload and audit each recovery."
  in
  Cmd.v (Cmd.info "torture" ~doc)
    Term.(
      const run $ seed_arg
      $ docs_arg 12 "Objects allocated by the build transaction."
      $ batches_arg "Update transactions after the build.")

(* --- failover ----------------------------------------------------- *)

let failover_cmd =
  let run seed docs batches standbys =
    if docs <= 0 || batches <= 0 || standbys <= 0 then
      usage_error "failover" "--docs, --batches and --standbys must be positive";
    let outcome =
      Core.Torture.(run_sweep (prepare_failover ~seed ~docs ~batches ~standbys ()))
    in
    print_outcome outcome;
    if not (Core.Torture.ok outcome) then exit 1
  in
  let doc =
    "Kill the primary of a journal-shipping replica group at every \
     physical I/O, promote the best standby, and audit that it serves \
     the committed prefix byte-identically."
  in
  Cmd.v (Cmd.info "failover" ~doc)
    Term.(
      const run $ seed_arg
      $ docs_arg 12 "Documents indexed by the workload."
      $ batches_arg "Commit batches the build is split into."
      $ standbys_arg)

(* --- epoch and ingest --------------------------------------------- *)

(* Both run a live-index workload once as the golden run and report
   its timeline; --audit adds the crash sweep over its physical I/Os. *)
let golden_report command ~ops ~seed ~docs ~audit ~json sweep timeline =
  let golden_problems = Core.Torture.golden_problems sweep in
  List.iter (fun p -> Printf.printf "golden run problem: %s\n" p) golden_problems;
  emit ~failed:(golden_problems <> []) json command
    [ ("seed", J.Int seed); ("docs", J.Int docs); ("audited", J.Bool audit) ]
    [
      table "golden" [ ops; "crash_points" ]
        [ [ J.Int (List.length timeline.Core.Run_report.rows); J.Int (Core.Torture.points sweep) ] ];
      timeline;
    ]
    (if audit then Some (Core.Torture.run_sweep sweep) else None)

let epoch_cmd =
  let run seed docs audit json =
    if docs <= 0 then usage_error "epoch" "--docs must be positive";
    let sweep = Core.Torture.prepare_epoch ~seed ~docs () in
    golden_report "epoch" ~ops:"mutations" ~seed ~docs ~audit ~json sweep
      (table "epochs" [ "epoch"; "documents"; "terms" ]
         (List.map
            (fun (e, d, t) -> [ J.Int e; J.Int d; J.Int t ])
            (Core.Torture.epoch_table (Core.Torture.golden sweep))))
  in
  let doc =
    "Publish epochs through a journaled live index (snapshot-isolated COW mutation) and, with \
     $(b,--audit), crash at every physical I/O proving torn-read-proof recovery and \
     pinned-epoch gc safety."
  in
  Cmd.v (Cmd.info "epoch" ~doc)
    Term.(
      const run $ seed_arg
      $ docs_arg 8 "Documents the live-index workload indexes (deletions are interleaved)."
      $ audit_arg
          "Crash the workload at every physical I/O, recover each image, and audit that the \
           surviving root is wholly old or wholly new, fsck-clean, and gc-drainable."
      $ json_arg "Write the outcome as JSON to $(docv).")

let ingest_cmd =
  let run seed docs audit json =
    if docs <= 0 then usage_error "ingest" "--docs must be positive";
    let sweep = Core.Torture.prepare_ingest ~seed ~docs () in
    golden_report "ingest" ~ops:"operations" ~seed ~docs ~audit ~json sweep
      (table "timeline" [ "op"; "acked_seq"; "folds"; "documents" ]
         (List.map
            (fun (o, s, f, d) -> [ J.Int o; J.Int s; J.Int f; J.Int d ])
            (Core.Torture.ingest_table (Core.Torture.golden sweep))))
  in
  let doc =
    "Ingest documents online through the WAL-backed write buffer and budgeted merge and, \
     with $(b,--audit), crash at every physical I/O proving exactly-once document \
     durability: no acknowledged document lost or duplicated, rankings byte-identical at \
     the recovered frontier, merge resumed to a clean drain."
  in
  Cmd.v (Cmd.info "ingest" ~doc)
    Term.(
      const run $ seed_arg
      $ docs_arg 8 "Documents the ingest workload adds (deletions and merges are interleaved)."
      $ audit_arg
          "Crash the workload at every physical I/O, recover each image with WAL replay, and \
           audit exactly-once durability: every acknowledged document present exactly once, \
           rankings byte-identical to the golden run at the recovered frontier, and the merge \
           resuming to a clean drain."
      $ json_arg "Write the outcome as JSON to $(docv).")

(* --- scrub -------------------------------------------------------- *)

let scrub_cmd =
  let bits_arg =
    let doc = "Distinct bits flipped inside each rotted segment." in
    Arg.(value & opt int 1 & info [ "bits" ] ~docv:"N" ~doc)
  in
  let no_crash_arg =
    let doc = "Skip the crash-during-repair enumeration (faster)." in
    Arg.(value & flag & info [ "no-crash-sweep" ] ~doc)
  in
  let budgets_arg =
    let doc =
      "Instead of the sweep, run the scrub-tax experiment: detect and \
       heal one rotted segment under each per-step byte BUDGET \
       (repeatable), reporting detection latency against foreground \
       query slowdown."
    in
    Arg.(value & opt_all int [] & info [ "budget" ] ~docv:"BUDGET" ~doc)
  in
  let run seed docs batches standbys bits no_crash budgets =
    if docs <= 0 || batches <= 0 || standbys <= 0 || bits <= 0 then
      usage_error "scrub" "--docs, --batches, --standbys and --bits must be positive";
    if List.exists (fun b -> b <= 0) budgets then
      usage_error "scrub" "every --budget must be positive";
    match budgets with
    | _ :: _ ->
      let row r =
        let open Core.Torture in
        [ J.Int r.sw_budget; J.Int r.sw_steps; J.Float (2, r.sw_detect_ms);
          J.Float (2, r.sw_stall_ms); J.Float (2, r.sw_heal_ms); J.Float (2, r.sw_query_ms) ]
      in
      emit None "scrub"
        [ ("seed", J.Int seed); ("docs", J.Int docs); ("batches", J.Int batches);
          ("standbys", J.Int standbys) ]
        [
          table "budgets"
            [ "budget"; "steps"; "detect_ms"; "stall_ms"; "heal_ms"; "query_ms" ]
            (List.map row
               (Core.Torture.scrub_budget_sweep ~seed ~docs ~batches ~standbys ~budgets ()));
        ]
        None
    | [] ->
      let outcome =
        Core.Torture.run_scrub ~seed ~docs ~batches ~standbys ~bits
          ~crash_sweep:(not no_crash) ()
      in
      print_outcome outcome;
      if not (Core.Torture.ok outcome) then exit 1
  in
  let doc =
    "Flip bits in every physical segment of a replicated store, one \
     member at a time, and audit that budgeted scrubbing plus replica \
     read-repair converges the group back to byte-identical, \
     query-identical stores — including when the repair itself is \
     crashed at every I/O."
  in
  Cmd.v (Cmd.info "scrub" ~doc)
    Term.(
      const run $ seed_arg
      $ docs_arg 12 "Documents indexed by the workload."
      $ batches_arg "Commit batches the build is split into."
      $ standbys_arg $ bits_arg $ no_crash_arg $ budgets_arg)

(* --- frontend ----------------------------------------------------- *)

let frontend_cmd =
  let query_arg =
    let doc = "Query in INQUERY syntax, e.g. '#sum( ba be bi )'." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let replicas_arg =
    let doc = "Number of replicas in the group." in
    Arg.(value & opt int 2 & info [ "replicas" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Per-query deadline in simulated milliseconds." in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"MS" ~doc)
  in
  let degrade_arg =
    let doc =
      "Make one replica's device sick: NAME:MS inflates every physical \
       I/O on replica NAME by MS simulated milliseconds (repeatable)."
    in
    Arg.(value & opt_all string [] & info [ "degrade" ] ~docv:"NAME:MS" ~doc)
  in
  let top_arg =
    let doc = "Number of ranked documents to print." in
    Arg.(value & opt int 10 & info [ "top"; "k" ] ~docv:"K" ~doc)
  in
  let run scale name query replicas deadline degrade top_k =
    if replicas <= 0 then begin
      Printf.eprintf "frontend: --replicas must be positive\n";
      exit 2
    end;
    let model = Collections.Presets.find ~scale name in
    let prepared = Core.Experiment.prepare ~progress model in
    let names = List.init replicas (fun i -> Printf.sprintf "r%d" (i + 1)) in
    let fe = Core.Frontend.of_prepared prepared ~names in
    List.iter
      (fun spec ->
        match String.index_opt spec ':' with
        | None ->
          Printf.eprintf "frontend: --degrade expects NAME:MS, got %s\n" spec;
          exit 2
        | Some i -> (
          let rname = String.sub spec 0 i in
          let ms = String.sub spec (i + 1) (String.length spec - i - 1) in
          match (float_of_string_opt ms, List.mem rname names) with
          | Some ms, true when ms >= 0.0 ->
            Vfs.set_fault
              (Core.Frontend.replica_vfs fe ~name:rname)
              (Vfs.Fault.degraded_device ~file:prepared.Core.Experiment.mneme_file ~ms)
          | _ ->
            Printf.eprintf "frontend: bad --degrade %s (unknown replica or bad MS)\n" spec;
            exit 2))
      degrade;
    match Inquery.Query.parse query with
    | Error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 2
    | Ok q ->
      let r = Core.Frontend.run_query ~top_k ?deadline_ms:deadline fe q in
      Printf.printf "query        %s\n" (Inquery.Query.to_string q);
      Printf.printf "served by    %s\n" r.Core.Frontend.served_by;
      Printf.printf "elapsed      %.2f ms (simulated)\n" r.Core.Frontend.elapsed_ms;
      Printf.printf "degraded     %b%s\n" r.Core.Frontend.degraded
        (if r.Core.Frontend.deadline_hit then " (deadline hit)" else "");
      Printf.printf "hedged       %d fetches\n" r.Core.Frontend.hedged_fetches;
      if r.Core.Frontend.skipped_terms <> [] then
        Printf.printf "skipped      %s\n" (String.concat ", " r.Core.Frontend.skipped_terms);
      List.iter
        (fun (term, reason) -> Printf.printf "failed       %s: %s\n" term reason)
        r.Core.Frontend.failed_terms;
      List.iter
        (fun rname ->
          let state =
            match Core.Frontend.breaker fe ~name:rname with
            | Core.Frontend.Closed -> "closed"
            | Core.Frontend.Open -> "open"
            | Core.Frontend.Half_open -> "half-open"
          in
          Printf.printf "breaker      %s: %s\n" rname state)
        (Core.Frontend.replica_names fe);
      List.iteri
        (fun i rk ->
          Printf.printf "%3d. doc %-8d belief %.4f\n" (i + 1) rk.Inquery.Ranking.doc
            rk.Inquery.Ranking.score)
        r.Core.Frontend.ranked
  in
  let doc =
    "Run one query through the replica frontend: per-replica circuit \
     breakers, hedged reads on stall, and an optional deadline that \
     degrades the result instead of missing it."
  in
  Cmd.v (Cmd.info "frontend" ~doc)
    Term.(const run $ scale_arg $ collection_arg $ query_arg $ replicas_arg $ deadline_arg
          $ degrade_arg $ top_arg)

(* --- shard -------------------------------------------------------- *)

let shard_cmd =
  let collection_arg =
    let doc = "Collection preset: cacm, legal, tipster1 or tipster." in
    Arg.(value & pos 0 string "cacm" & info [] ~docv:"COLLECTION" ~doc)
  in
  let shards_arg =
    let doc = "Shard count to measure (repeatable; default 1, 2, 4, 8)." in
    Arg.(value & opt_all int [ 1; 2; 4; 8 ] & info [ "shards" ] ~docv:"N" ~doc)
  in
  let replicas_arg =
    let doc = "Replicas per shard." in
    Arg.(value & opt int 2 & info [ "replicas" ] ~docv:"N" ~doc)
  in
  let run scale name shard_counts replicas k limit audit json =
    if replicas <= 0 || k <= 0 then usage_error "shard" "--replicas and --k must be positive";
    if List.exists (fun s -> s <= 0) shard_counts then
      usage_error "shard" "every --shards must be positive";
    let model, prepared, queries = load ~scale ~limit Collections.Presets.topk_queries name in
    (* The unsharded oracle the merged rankings must reproduce. *)
    let engine = Core.Experiment.open_engine prepared Core.Experiment.Mneme_cache in
    let oracle =
      List.map
        (fun q ->
          List.map
            (fun r -> (r.Inquery.Ranking.doc, r.Inquery.Ranking.score))
            (Core.Engine.run_topk_string ~k engine q).Core.Engine.topk_ranked)
        queries
    in
    let measure ~global_bound shards =
      let coord =
        Core.Shard.create ~shard_replicas:replicas ~global_bound ~shards prepared
      in
      let makespan = ref 0.0 and decoded = ref 0 and per_shard_max = ref 0 and exact = ref true in
      List.iter2
        (fun q gold ->
          match Core.Shard.run_query_string ~top_k:k coord q with
          | Error e ->
            Printf.eprintf "shard: %d-shard query refused: %s\n" shards
              (Core.Shard.error_message e);
            exit 1
          | Ok res ->
            makespan := !makespan +. res.Core.Shard.elapsed_ms;
            List.iter
              (fun (rep : Core.Shard.shard_report) ->
                decoded := !decoded + rep.Core.Shard.r_postings_decoded;
                if rep.Core.Shard.r_postings_decoded > !per_shard_max then
                  per_shard_max := rep.Core.Shard.r_postings_decoded)
              res.Core.Shard.reports;
            let got =
              List.map
                (fun r -> (r.Inquery.Ranking.doc, r.Inquery.Ranking.score))
                res.Core.Shard.ranked
            in
            if (not res.Core.Shard.complete) || got <> gold then exact := false)
        queries oracle;
      (!makespan, !decoded, !per_shard_max, !exact)
    in
    let all_exact = ref true in
    let rows =
      List.filter_map
        (fun shards ->
          if shards > model.Collections.Docmodel.n_docs then begin
            Printf.eprintf "shard: skipping %d shards (> %d documents)\n" shards
              model.Collections.Docmodel.n_docs;
            None
          end
          else begin
            let makespan, decoded, per_shard, exact = measure ~global_bound:true shards in
            let _, decoded_nobound, _, _ = measure ~global_bound:false shards in
            all_exact := !all_exact && exact;
            Some
              [ J.Int shards; J.Int (List.length queries); J.Float (3, makespan); J.Int decoded;
                J.Int per_shard; J.Int decoded_nobound; J.Bool exact ]
          end)
        shard_counts
    in
    if not !all_exact then
      Printf.eprintf "shard: some merged rankings diverged from the unsharded index\n";
    emit ~failed:(not !all_exact) json "shard"
      (("collection", J.String name) :: ("k", J.Int k) :: ("replicas", J.Int replicas)
      :: sweep_params ~scale ~limit ~audit)
      [
        table "shards"
          [ "shards"; "queries"; "makespan_ms"; "postings_decoded"; "max_per_shard";
            "postings_decoded_no_bound"; "exact" ]
          rows;
      ]
      (if audit then Some (Core.Torture.run_shard ()) else None)
  in
  let doc =
    "Scatter-gather a query set over doc-partitioned shards (each a replicated store behind \
     its own frontend), measuring makespan and per-shard postings decoded with and without \
     the global top-k bound, and, with $(b,--audit), torture one member at every serving I/O \
     proving partial-result exactness and the deadline overshoot bound."
  in
  Cmd.v (Cmd.info "shard" ~doc)
    Term.(
      const run $ scale_arg $ collection_arg $ shards_arg $ replicas_arg
      $ k_arg "Ranked documents per query."
      $ queries_arg "Evaluate only the first N queries of the set."
      $ audit_arg
          "Run the shard torture: replay the scatter with one member crashed, stalled or \
           bit-flipped at every serving I/O (plus whole-shard blackouts and brownouts) and \
           audit bit-identical full results, exactly-restricted partial results, and the \
           one-fetch deadline overshoot bound."
      $ json_arg "Write the scaling table (and audit outcome) as JSON to $(docv).")

(* --- query -------------------------------------------------------- *)

let query_cmd =
  let query_arg =
    let doc = "Query in INQUERY syntax, e.g. '#sum( ba #phrase( be bi ) )'." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let top_arg =
    let doc = "Number of ranked documents to print." in
    Arg.(value & opt int 10 & info [ "top"; "k" ] ~docv:"K" ~doc)
  in
  let run scale name query top_k =
    let model = Collections.Presets.find ~scale name in
    let prepared = Core.Experiment.prepare ~progress model in
    let engine = Core.Experiment.open_engine prepared Core.Experiment.Mneme_cache in
    match Inquery.Query.parse query with
    | Error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 2
    | Ok q ->
      let result = Core.Engine.run_query ~top_k engine q in
      Printf.printf "query: %s\n" (Inquery.Query.to_string q);
      Printf.printf "lookups: %d, postings scored: %d\n" result.Core.Engine.record_lookups
        result.Core.Engine.postings_scored;
      List.iteri
        (fun i r ->
          Printf.printf "%3d. doc %-8d belief %.4f\n" (i + 1) r.Inquery.Ranking.doc
            r.Inquery.Ranking.score)
        result.Core.Engine.ranked
  in
  let doc = "Run one query against a collection (Mneme cache version)." in
  Cmd.v (Cmd.info "query" ~doc) Term.(const run $ scale_arg $ collection_arg $ query_arg $ top_arg)

let () =
  let doc = "Reproduction of Brown et al., 'Supporting Full-Text Information Retrieval with a Persistent Object Store'" in
  (* No ~version here: cmdliner's built-in --version would collide with
     the run subcommand's documented --version flag. *)
  let info = Cmd.info "repro" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ tables_cmd; ablations_cmd; stats_cmd; run_cmd; query_cmd; topk_cmd; plan_cmd;
            parallel_cmd; fsck_cmd; torture_cmd; failover_cmd; scrub_cmd; epoch_cmd; ingest_cmd;
            frontend_cmd; shard_cmd; cache_cmd ]))
