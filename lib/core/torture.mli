(** Crash-point torture harness (ALICE / CrashMonkey style).

    Each family runs a deterministic workload to completion under a
    counting fault plan to learn how many physical I/Os it performs and
    what a perfect run holds at each step, then replays it with a fault
    armed at every one of those I/Os and audits what survives.  Every
    deviation is reported as a problem tied to its point; a correct
    system yields an empty problem list. *)

val file : string
(** Store file name used by the workload ("torture.mneme"). *)

val log_file : string
(** Journal log file name ("torture.log"). *)

(** {2 One outcome for every family}

    Every torture family — store, failover, scrub, epoch, ingest, shard
    and cache — reports the same way: labelled tallies in a fixed order
    (the keys its BENCH JSON uses) and the problems found, each tagged
    with the point it was found at.  Point 0 is the golden (unfaulted)
    run's own audit: the crash sweeps' golden runs, the shard sweep's
    clean probe, and the cache churn's audit phase. *)

type outcome = {
  family : string;
  tallies : (string * int) list;
  problems : (int * string) list;  (** (point, violation) *)
}

val ok : outcome -> bool
(** [problems = []]. *)

val tally : outcome -> string -> int
(** The tally with the given label.  Raises [Not_found] if the family
    keeps none. *)

val pp : Format.formatter -> outcome -> unit
(** One line of tallies, then one line per problem; point 0 prints as
    "golden run". *)

val to_json : outcome -> Util.Json.t
(** The outcome as a JSON object: each tally as a key, then a
    ["problems"] array of [{"point", "problem"}] objects. *)

(** {2 The generic crash sweep}

    A family's golden run learns how many physical I/Os its workload
    performs — one crash point each — and records what its audit needs.
    The sweep then replays the workload once per point on a device armed
    with {!Vfs.Fault.crash_at_io}, notes a replay that ran to completion,
    takes {!Vfs.crash_image} (what a reboot would find), runs
    {!Mneme.Store.recover_journal} when the family keeps a journal
    (tallying the verdict as [replayed] / [discarded] / [clean]), and
    hands the image to the family's audit, which adds its own counts. *)

type 'g sweep
(** A completed golden run carrying family data ['g]. *)

val points : _ sweep -> int
(** Crash points: the physical I/Os the golden run performed. *)

val golden : 'g sweep -> 'g

val golden_problems : _ sweep -> string list
(** Violations the golden run's own audit found ([] = clean). *)

type report = {
  counts : (string * int) list;  (** tallies this replay adds *)
  problems : string list;  (** invariant violations; [] = consistent *)
}

val run_point : _ sweep -> int -> report
(** Replay with a crash at physical I/O [k] (1-based), recover, audit.
    Raises [Invalid_argument] outside [1 .. points]. *)

val run_sweep : _ sweep -> outcome
(** Every crash point, plus the golden problems at point 0.  The
    tallies start with [points]. *)

(** {2 Store torture}

    A deterministic journaled workload — an index build, then update
    batches that modify, delete and allocate objects, each batch ending
    in a finalize and bumping a persisted generation counter.  Every
    recovered store is audited:

    - it must open (unless {e no} commit ever completed — before that
      the file legitimately holds nothing durable);
    - the persisted generation [g] must satisfy
      [completed - 1 <= g <= started - 1] — a commit the workload saw
      finish is never rolled back, and nothing past the last started
      commit can appear;
    - {!Mneme.Check.run} must pass (including the segment CRC32 pass);
    - the store must hold exactly the objects of generation [g]'s
      snapshot, byte for byte.

    Tallies: [points], [opened], [unopenable] (crash images from before
    the first commit), [replayed], [discarded], [clean]. *)

type plan
(** Per-generation expected contents. *)

val prepare : ?seed:int -> ?docs:int -> ?update_batches:int -> unit -> plan sweep
(** Run the workload to completion (defaults: seed 42, 12 documents,
    3 update batches) and collect the golden snapshots. *)

(** {2 Failover torture}

    The same discipline pointed at replication.  A deterministic
    {e journal-shipping} workload — an incremental index build whose
    update batches allocate, grow and migrate term records inside
    journal transactions, with a {!Mneme.Replica} group attached and a
    fixed query set run after every commit — is first run to completion
    to learn its physical I/O count on the primary device and to record,
    per committed generation: the expected store contents, the catalog,
    and the ranked results of every query.  Then the workload is
    replayed once per I/O with the primary's device dying at that I/O.
    The most caught-up healthy standby is promoted and audited:

    - its applied LSN must lie in [completed, started] — no committed
      batch lost, nothing uncommitted applied;
    - the promoted store must open and pass {!Mneme.Check.run};
    - it must hold byte-for-byte the record set of its generation;
    - every query must return {e byte-identical ranked results} to the
      golden run at that generation.

    Tallies: [points], [promoted] (crash points that yielded a
    survivor), [empty] (crashes before any commit: the survivor is
    legitimately empty). *)

val failover_file : string
(** Store file name used by the workload ("failover.mneme"). *)

val failover_log : string
(** Journal log file name ("failover.log"). *)

type failover_plan
(** Per-generation contents, catalogs and ranked results. *)

val prepare_failover :
  ?seed:int -> ?docs:int -> ?batches:int -> ?standbys:int -> unit -> failover_plan sweep
(** Golden run (defaults: seed 42, 12 documents, 3 batches, 2
    standbys).  Raises [Invalid_argument] on non-positive counts. *)

(** {2 Scrub torture}

    The bit-rot sweep that proves the self-healing loop.  The failover
    workload is run to completion with a replica group attached; then,
    for {e every} flushed physical segment, bits are flipped inside one
    member's on-disk copy of that segment (round-robin across the
    primary and the standbys) and the detect-to-repair loop must close:

    - a group scrub ({!Mneme.Scrub}) finds exactly the damaged segment
      on exactly the damaged member;
    - one {!Mneme.Replica.heal_segment} repairs it from a peer's
      verified copy — and, being a journaled rewrite on the primary,
      converges every standby too;
    - a second scrub finds nothing, every member passes
      {!Mneme.Check.run}, every data file is byte-identical, and a fresh
      engine returns the golden ranked results with {e zero} quarantined
      terms;
    - additionally ([crash_sweep]), the repair itself is crashed at
      every one of its primary-device I/Os; after reboot through journal
      recovery the surviving copies must still converge to the same
      clean group.

    Tallies: [segments], [members], [healed] (heals applied across the
    sweep), [crash_points] (crash-during-repair replays).  Problems are
    tagged with the 1-based segment number in scrub walk order. *)

type scrub_scenario
(** A completed replicated workload plus its golden expectations: the
    open primary store and replica group, the full physical-segment
    census, and the ranked results every audit must reproduce. *)

val build_scrub_scenario :
  ?seed:int -> ?docs:int -> ?batches:int -> ?standbys:int -> unit -> scrub_scenario
(** Defaults: seed 42, 12 documents, 3 batches, 2 standbys.  Raises
    [Invalid_argument] on non-positive counts. *)

val scenario_segments : scrub_scenario -> int
(** Flushed physical segments across all pools (scrub walk order). *)

val scenario_member_names : scrub_scenario -> string list
(** ["primary"] followed by the standby names in attach order. *)

val scenario_rot :
  scrub_scenario -> member:string -> segment:int -> ?bits:int -> seed:int -> unit -> unit
(** Flip [bits] (default 1) distinct bits inside [member]'s on-disk copy
    of segment number [segment] (an index into the walk order), damaging
    both the OS view and the durable image.  Raises [Invalid_argument]
    on an unknown member or out-of-range segment. *)

val scrub_group : scrub_scenario -> (string * Mneme.Scrub.damage) list
(** Scrub every member's copy fresh from its own disk and return the
    combined worklist as [(member, damage)] pairs, members in attach
    order. *)

val heal_group : scrub_scenario -> int * string list
(** Scrub-and-heal to fixpoint through {!Mneme.Replica.heal_segment}:
    returns the number of heals applied and any failures (an empty list
    means the group reached a clean fixpoint within 3 rounds). *)

val audit_scenario : scrub_scenario -> string list
(** The convergence audit: fsck every member, demand byte-identical data
    files, golden ranked results and an empty quarantine.  Returns the
    violations ([] = converged). *)

val run_scrub :
  ?seed:int ->
  ?docs:int ->
  ?batches:int ->
  ?standbys:int ->
  ?bits:int ->
  ?crash_sweep:bool ->
  unit ->
  outcome
(** The full sweep (defaults: seed 42, 12 documents, 3 batches, 2
    standbys, 1 bit per rot, crash sweep on).  {!ok} means every
    segment of every member healed back to a byte-identical,
    query-identical group — no matter where the repair was crashed. *)

type sweep_row = {
  sw_budget : int;  (** max bytes verified per scrub step *)
  sw_steps : int;  (** steps until the damage was detected *)
  sw_detect_ms : float;  (** simulated ms of scrub work to detection *)
  sw_stall_ms : float;  (** longest single step: worst foreground wait *)
  sw_heal_ms : float;
  sw_query_ms : float;  (** mean foreground query latency between steps *)
}

val scrub_budget_sweep :
  ?seed:int -> ?docs:int -> ?batches:int -> ?standbys:int -> budgets:int list -> unit -> sweep_row list
(** The scrub-tax experiment: rot the last segment of the walk on the
    primary, then detect and heal it under each per-step byte budget,
    running a foreground query between steps.  Small budgets detect
    slowly but never hold the disk long; large ones detect fast at the
    price of a long worst-case stall.  Raises [Invalid_argument] on a
    non-positive budget. *)

(** {2 Epoch torture}

    Crash-point enumeration for snapshot-isolated serving.  The
    workload drives a journaled {!Live_index} over a synthetic
    collection, interleaving document additions and deletions — every
    mutation publishes an epoch through one sealed root switch — and
    observing the directory, record bytes and a fixed ranked query set
    after each publication (the observation I/O is part of the
    deterministic sequence, so replays stay aligned).  A golden run
    under {!Vfs.Fault.none} records the view at every epoch, pins a
    spread of epochs, and audits the gc discipline; every replay
    crashes at one physical I/O, reboots on the durable image, recovers
    the journal, and demands:

    - {b (a)} the recovered store is fsck-clean, before and after gc;
    - {b (b)} the surviving root is wholly the old epoch or wholly the
      new one — directory, records, document count and rankings all
      byte-identical to the golden view of that epoch, never a mix;
    - {b (c)} gc drains every stranded byte the interrupted epoch left
      behind, and a reader pinned in the golden run ranks
      bit-identically no matter how much mutation (and gc) followed.

    Tallies: [points], [opened], [unopenable], [wholly_old] (recovered
    to the last epoch the replay saw commit), [wholly_new] (the log
    fsync sealed the interrupted epoch), [replayed], [discarded],
    [clean], [gc_reclaimed_objects] (objects the golden run's gc passes
    freed). *)

type epoch_plan
(** The golden view of every published epoch. *)

val prepare_epoch : ?seed:int -> ?docs:int -> unit -> epoch_plan sweep
(** Golden run (defaults: seed 42, 8 documents — roughly [4/3 · docs]
    epoch publications).  Counts the crash points, snapshots every
    epoch's view, and audits pinned readers and gc.  An unopenable
    replay image is only a problem if the replay had seen at least one
    publication commit.  Raises [Invalid_argument] on a non-positive
    [docs]. *)

val epoch_table : epoch_plan -> (int * int * int) list
(** The golden run per epoch: [(epoch, documents, live terms)] — the
    view each published root seals. *)

(** {2 Ingest torture}

    Crash-point enumeration for online ingestion.  The workload drives
    an {!Ingest} index over a synthetic collection — WAL-acknowledged
    additions and deletions interleaved with budgeted merge steps —
    observing the union's document table and a fixed ranked query set
    after every operation (the observation I/O is part of the
    deterministic sequence, so replays stay aligned), then drains the
    merge one budgeted fold at a time.  A golden run under
    {!Vfs.Fault.none} records the union at every acknowledged frontier
    and audits pins, gc and the drain; every replay crashes at one
    physical I/O, reboots on the durable image, recovers with
    {!Ingest.open_}, and demands:

    - {b (a)} the recovered store is fsck-clean, before and after the
      drain and gc;
    - {b (b)} exactly-once durability: the recovered frontier sits
      inside the acknowledged window, and the union's document table
      and rankings are byte-identical to the golden run at that
      frontier — every acknowledged document present exactly once, an
      unacknowledged one absent or wholly present, never lost or
      doubled;
    - {b (c)} a reader pinned on the recovered union ranks
      bit-identically to the golden union at that frontier;
    - {b (d)} the merge resumes and drains: the buffer empties, the
      frontier reaches the last acknowledged operation, rankings do
      not move, the WAL is truncated, and gc leaves nothing
      stranded.

    Tallies: [points], [acked_ops] (operations the golden run
    acknowledged), [folds], [opened], [unopenable], [wholly_old]
    (recovered to the last fold the replay saw commit), [wholly_new]
    (the journal fsync sealed the interrupted fold), [replayed],
    [discarded], [clean], [wal_redelivered] (WAL records recovery
    re-applied across all replays), [gc_reclaimed_objects]. *)

type ingest_plan
(** The golden union after every operation, indexed by operation and by
    acknowledged frontier. *)

val prepare_ingest : ?seed:int -> ?docs:int -> unit -> ingest_plan sweep
(** Golden run (defaults: seed 42, 8 documents).  Counts the crash
    points, snapshots the union after every operation, indexes the
    observations by acknowledged frontier, and audits pinned readers,
    the drain and gc.  Raises [Invalid_argument] on a non-positive
    [docs]. *)

val ingest_table : ingest_plan -> (int * int * int * int) list
(** The golden run per operation: [(op, acked_seq, folds, documents)]. *)

(** {2 Shard torture}

    The fault-at-every-I/O discipline pointed at scatter-gather
    serving.  An unsharded golden index is built and its rankings
    recorded (the full above-baseline ranking per query is the
    restriction oracle); a clean sharded coordinator ({!Shard.create})
    is probed to learn every replica's serving-phase physical I/O
    count; then the scatter is replayed with one member crashed
    ({!Vfs.Fault.crash_at_io}), stalled ({!Vfs.Fault.stall_at_io}) or
    bit-flipped ({!Vfs.Fault.flip_bit_on_read}) at each of those I/Os —
    plus, per shard, a {e blackout} (every replica dead from its first
    serving I/O, exercising retry-with-backoff and shedding) and a
    {e brownout} (every replica slowed below the hedge threshold under
    a deadline, exercising deadline degradation).  Every merged result
    is audited:

    - {b (a)} full-coverage results are bit-identical (doc ids and
      belief floats) to the unsharded index;
    - {b (b)} partial results are {e exactly} the unsharded ranking
      restricted to the answered shards' doc ranges — any deviation is
      a {e silent truncation}, and the coverage record must account for
      every shard and every covered document;
    - {b (c)} the deadline is overshot by at most one in-flight fetch
      (the stall or brownout latency) plus one clean run's worth of
      CPU.

    Tallies: [shards], [members] (replicas probed for serving-phase
    I/Os), [points] (member serving I/Os enumerated), [runs] (fault
    replays: sweep + blackouts + brownouts), [full] and [partial]
    (query results audited), [overshoots] (deadline overshoots beyond
    one fetch), [truncations] (silent truncations).  Problems are tagged
    with the replay number; 0 is the clean probe.  Every overshoot and
    truncation is also a problem. *)

val run_shard :
  ?seed:int -> ?docs:int -> ?shards:int -> ?replicas:int -> ?top_k:int -> unit -> outcome
(** The full sweep (defaults: seed 42, 24 documents, 2 shards, 2
    replicas per shard, top-10).  {!ok} on the outcome means every
    fault replay either served the exact unsharded ranking (hedged
    around the fault) or an exactly-restricted partial one, with the
    deadline bound honoured everywhere.  Raises [Invalid_argument] on
    non-positive counts or more shards than documents. *)


(** {1 Cache coherence under churn}

    The tiered-cache torture: a journaled Mneme live index under an
    add/delete churn workload, with a query-result cache and a
    decoded-block cache riding the epoch-publication hook
    ({!Live_index.on_publish}) the way a serving frontend would.  At
    every published epoch the harness compares the cached read path
    against the uncached one bit-for-bit:

    - every result-cache hit must equal the uncached latest-view
      ranking, and every entry filled at an epoch must hit for the rest
      of that epoch;
    - every pinned epoch, read through the shared block cache while
      later mutations and a gc run under the pins, must stream exactly
      the (doc, tf) pairs of a private uncached decode;
    - after gc, no cache holds an entry tagged with a collected epoch;
    - both invalidation mechanisms fire: the publication hook's eager
      drop and the probe-time epoch-mismatch purge (the harness gives
      results a one-epoch grace window precisely so the latter has
      stale entries to catch).

    A run that never exercised the machinery proves nothing, so no
    result-cache hit, no block-cache hit or no invalidation is itself a
    problem.  Tallies: [mutations], [comparisons] (cached-vs-uncached
    rankings and streams compared), [result_hits], [block_hits],
    [invalidations] (hook drops plus probe-time purges, both caches).
    Problems are tagged with the mutation; 0 is the audit phase after
    the churn. *)

val run_cache : ?seed:int -> ?docs:int -> unit -> outcome
(** Run the churn (defaults: seed 42, 18 documents — roughly 24
    published epochs).  Raises [Invalid_argument] on a non-positive
    document count. *)
