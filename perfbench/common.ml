(* Shared measurement plumbing: host clock, sample buffers, percentiles,
   GC counters, and [drive], which runs every workload and computes the
   metrics they share.

   Host time is read only through [Vfs.Clock.Monotonic]; simulated time
   only through a [Vfs.Clock].  The two never meet in one number. *)

let now_ns = Trace.now_ns
let ms_of_ns ns = float_of_int ns /. 1.0e6

(* Simulated milliseconds [f] charges to [vfs]'s clock. *)
let sim_ms vfs f =
  let clock = Vfs.clock vfs in
  let before = Vfs.Clock.snapshot clock in
  let x = f () in
  let after = Vfs.Clock.snapshot clock in
  (x, Vfs.Clock.wall_ms (Vfs.Clock.diff ~later:after ~earlier:before))

(* A growable float buffer: one per sampled quantity. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let mean t = if t.n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 (to_array t) /. float_of_int t.n

  (* Linear-interpolated percentile; 0 on an empty buffer. *)
  let pct t p = if t.n = 0 then 0.0 else Util.Stats.percentile (to_array t) p
end

let median xs = Util.Stats.percentile (Array.of_list xs) 50.0

(* A timed phase is a series of episodes, each the same fixed amount of
   work from the same starting state, so that the work measured does not
   depend on how fast the host ran.  An episode's host record: *)
type sample = {
  busy_ns : int;  (** host time of the episode's timed calls *)
  lat_ms : float array;  (** each query's host latency *)
}

type host = { qps : float; p50_ms : float; p99_ms : float }

(* The host figures of every request of a phase's episodes together. *)
let host_figures samples =
  let lat = Array.concat (List.map (fun s -> s.lat_ms) samples) in
  let busy_ns = List.fold_left (fun acc s -> acc + s.busy_ns) 0 samples in
  {
    qps = float_of_int (Array.length lat) /. (float_of_int busy_ns /. 1e9);
    p50_ms = Util.Stats.percentile lat 50.0;
    p99_ms = Util.Stats.percentile lat 99.0;
  }

(* OCaml runtime counters over one timed phase. *)
type gc = { minor : int; major : int; promoted_words : float }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_collections; major = s.Gc.major_collections; promoted_words = s.Gc.promoted_words }

let gc_diff ~later ~earlier =
  {
    minor = later.minor - earlier.minor;
    major = later.major - earlier.major;
    promoted_words = later.promoted_words -. earlier.promoted_words;
  }

let gc_add a b =
  { minor = a.minor + b.minor; major = a.major + b.major; promoted_words = a.promoted_words +. b.promoted_words }

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0
let heap_peak_mb () = mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)

(* Drop garbage before a set-up (so one set-up's peak heap is not
   stacked on the last one's) and before an episode (so each starts
   from the same heap state). *)
let settle () = Gc.compact ()

(* Host speed on a shared machine drifts by tens of percent, in spells
   of seconds and in spells of minutes that no run outlasts: a whole run
   can be a third slower than the one before it.  Host figures are
   therefore scaled to a reference host speed.  A fixed slice of work
   owned by the benchmark (a hash-table build and probe, an integer
   sort, a random walk over 4 MiB) runs, outside timing, after every
   [slice_every_ns] of timed calls; its host time tracks the host's
   speed at that moment.  An episode's host times are multiplied by
   [reference_slice_ms / k], [k] the slice's mean time during the
   episode: host time on a host where the slice takes
   [reference_slice_ms].  An episode too short to run a slice is left
   unscaled.  Set-up is a few long calls that slices cannot interleave
   with, so each set-up is scaled by [setup_slices] slices run just
   before it and as many just after.  The slice's buffers are allocated
   once, so it never runs the GC and its cost does not depend on the
   program's heap; no program code runs inside it. *)
let reference_slice_ms = 1.0
let slice_every_ns = 50_000_000
let setup_slices = 50
let hash_table = Array.make 4096 (-1)
let sort_buf = Array.make 1250 0
let walk_buf = Array.make (1 lsl 19) 0
let walk_pos = ref 0

let slice () =
  let t = hash_table and mask = Array.length hash_table - 1 in
  Array.fill t 0 (Array.length t) (-1);
  let slot k =
    let i = ref (((k * 0x9E3779B1) lsr 7) land mask) in
    while t.(!i) <> -1 && t.(!i) <> k do
      i := (!i + 1) land mask
    done;
    !i
  in
  for k = 0 to 2_499 do
    t.(slot (k * 7919)) <- k * 7919
  done;
  let found = ref 0 in
  for k = 0 to 9_999 do
    if t.(slot (k * 7919)) = k * 7919 then incr found
  done;
  let x = ref (Sys.opaque_identity !found) in
  for i = 0 to Array.length sort_buf - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3FFF_FFFF;
    sort_buf.(i) <- !x
  done;
  Array.sort Int.compare sort_buf;
  let m = walk_buf and j = walk_pos in
  for _ = 1 to 62_500 do
    j := ((!j * 1103515245) + 12345) land (Array.length m - 1);
    m.(!j) <- m.(!j) + 1
  done

(* Host time of every slice run so far. *)
let slices = ref 0
let slice_ns = ref 0

(* Called with the host time of each timed call: runs a slice once
   [slice_every_ns] of timed calls have passed since the last. *)
let since_slice = ref 0

let run_slice () =
  let t0 = now_ns () in
  slice ();
  slice_ns := !slice_ns + (now_ns () - t0);
  incr slices

let pace ns =
  since_slice := !since_slice + ns;
  if !since_slice >= slice_every_ns then begin
    since_slice := 0;
    run_slice ()
  end

(* Reference host time per host millisecond, over the slices run
   between two readings of [(!slices, !slice_ns)]. *)
let to_reference (n0, ns0) =
  let n = !slices - n0 and ns = !slice_ns - ns0 in
  if n = 0 then 1.0 else reference_slice_ms /. (ms_of_ns ns /. float_of_int n)

let runtime_metrics g =
  [
    ("runtime.minor_gcs", float_of_int g.minor, "count");
    ("runtime.major_gcs", float_of_int g.major, "count");
    ("runtime.promoted_mb", mb_of_words g.promoted_words, "MB");
  ]

(* Fixed-rate open-loop replay of simulated service times through one
   FIFO server: Poisson arrivals at [rate] per simulated second, the
   service times replayed in order and cyclically until [replay_arrivals]
   requests have arrived (so the arrival randomness averages out).  The
   exponential gaps are drawn once and rescaled, so every rate sees the
   same arrival pattern and the p99 response is monotone in the rate.
   Returns the highest rate whose p99 response time stays within
   [capacity_limit_ms]: a doubling ladder brackets it, bisection narrows it to
   0.01%.  The ladder stops at [max_rate] (a run whose every request
   costs nothing simulated has no finite capacity). *)
let replay_arrivals = 100_000
let max_rate = 1e7

(* The fixed open-loop limit on simulated p99 response time. *)
let capacity_limit_ms = 1000.0

let capacity_qps ~seed service_ms =
  let limit_ms = capacity_limit_ms in
  let k = Array.length service_ms in
  if k = 0 then 0.0
  else begin
    let n = max k replay_arrivals in
    let rng = Util.Rng.create ~seed in
    let gaps = Array.init n (fun _ -> -.log (1.0 -. Util.Rng.float rng 1.0)) in
    let resp = Array.make n 0.0 in
    let p99_at rate =
      let arrive = ref 0.0 and free = ref 0.0 in
      for i = 0 to n - 1 do
        arrive := !arrive +. (gaps.(i) /. rate *. 1000.0);
        let start = Float.max !arrive !free in
        free := start +. service_ms.(i mod k);
        resp.(i) <- !free -. !arrive
      done;
      Util.Stats.percentile resp 99.0
    in
    let ok rate = p99_at rate <= limit_ms in
    if not (ok 0.001) then 0.0
    else begin
      let lo = ref 0.001 and hi = ref 1.0 in
      while ok !hi && !hi < max_rate do
        lo := !hi;
        hi := !hi *. 2.0
      done;
      while (!hi -. !lo) /. !lo > 1e-4 do
        let mid = (!lo +. !hi) /. 2.0 in
        if ok mid then lo := mid else hi := mid
      done;
      !lo
    end
  end

(* A stream that records what it draws: after [rewind] it replays the
   record from the start, drawing afresh only past its end.  Episodes
   that must repeat the same inputs rewind it. *)
let recorded draw =
  let record = Hashtbl.create 1024 and pos = ref 0 in
  let next () =
    let x =
      match Hashtbl.find_opt record !pos with
      | Some x -> x
      | None ->
        let x = draw () in
        Hashtbl.add record !pos x;
        x
    in
    incr pos;
    x
  in
  (next, fun () -> pos := 0)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let log fmt = Printf.ksprintf (fun s -> prerr_endline s) fmt

(* Every search, timed or verifying, asks for the top 10. *)
let top_k = 10

type metric = string * float * string

(* What one workload run reports. *)
type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** verification failures, for stderr *)
  e2e : metric list;
  layers : metric list;
}

(* A workload as [drive] sees it: ['fx] is its fixture, ['ep] the
   record of one episode. *)
type ('fx, 'ep) workload = {
  build : unit -> 'fx;  (** set-up, from generation up to the first timed request *)
  reset : 'fx -> unit;  (** before every episode but the first: restore its starting state *)
  episode : 'fx -> 'ep;  (** one fixed amount of timed work *)
  sample : 'ep -> sample;
  verify : 'fx -> 'ep -> int * int * string list;  (** attempted, failed, problems *)
  e2e : 'fx -> 'ep -> metric list;  (** end-to-end metrics beyond [drive]'s own *)
  layers : 'fx -> 'ep -> metric list;  (** per-layer metrics beyond [drive]'s own *)
}

(* A timed phase: episodes, each verified after it ends (outside
   timing), until their timed calls have taken [seconds] of host time;
   at least one.  Deterministic and per-layer figures come from the
   first episode; GC counters cover every episode's timed work. *)
type 'ep phase = {
  first : 'ep;
  host : host;  (** in reference host time *)
  episodes : int;
  attempted : int;
  failed : int;
  problems : string list;
  gc : gc;
}

let phase w fx ~seconds =
  let budget_ns = int_of_float (seconds *. 1e9) in
  let first = ref None and samples = ref [] and busy = ref 0 in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let gc = ref { minor = 0; major = 0; promoted_words = 0.0 } and scaled = ref [] in
  while Option.is_none !first || !busy < budget_ns do
    if Option.is_some !first then w.reset fx;
    settle ();
    since_slice := 0;
    let gc0 = gc_now () and k0 = (!slices, !slice_ns) in
    let ep = w.episode fx in
    gc := gc_add !gc (gc_diff ~later:(gc_now ()) ~earlier:gc0);
    let s = w.sample ep in
    let k = to_reference k0 in
    samples := s :: !samples;
    scaled :=
      { busy_ns = int_of_float (float_of_int s.busy_ns *. k); lat_ms = Array.map (fun x -> x *. k) s.lat_ms }
      :: !scaled;
    busy := !busy + s.busy_ns;
    let a, f, p = w.verify fx ep in
    attempted := !attempted + a;
    failed := !failed + f;
    problems := !problems @ List.filteri (fun i _ -> i + List.length !problems < 5) p;
    if Option.is_none !first then first := Some ep
  done;
  let raw = host_figures !samples in
  log "timed phase: episodes %d, timed calls %.1f s; host qps %.6g, p50 %.6g ms, p99 %.6g ms before scaling"
    (List.length !samples) (float_of_int !busy /. 1e9) raw.qps raw.p50_ms raw.p99_ms;
  {
    first = Option.get !first;
    host = host_figures !scaled;
    episodes = List.length !samples;
    attempted = !attempted;
    failed = !failed;
    problems = !problems;
    gc = !gc;
  }

(* One run of a workload.  The fixture is built [reps] times from
   scratch, after a heap compaction each; setup_s is the median of their
   scaled times and the last fixture is served.  Untraced, one timed phase of [seconds] gives
   the end-to-end metrics.  Traced, an untraced phase and a traced phase
   on a fresh fixture from the same seed run half the time each; the
   second gives the per-layer metrics and the qps difference between
   them is the tracing overhead. *)
let drive w ~reps ~seconds ~trace =
  let setups = ref [] and raw_setups = ref [] in
  let fresh () =
    settle ();
    let k0 = (!slices, !slice_ns) in
    for _ = 1 to setup_slices do
      run_slice ()
    done;
    let t0 = now_ns () in
    let fx = w.build () in
    let raw = ms_of_ns (now_ns () - t0) /. 1000.0 in
    for _ = 1 to setup_slices do
      run_slice ()
    done;
    raw_setups := raw :: !raw_setups;
    setups := (raw *. to_reference k0) :: !setups;
    Trace.reset ();
    fx
  in
  for _ = 2 to reps do
    ignore (fresh ())
  done;
  let fx = fresh () in
  if not trace then begin
    let p = phase w fx ~seconds in
    log "set-up: median %.4f s before scaling" (median !raw_setups);
    let e2e =
      [
        ("setup_s", median !setups, "s");
        ("query_qps", p.host.qps, "1/s");
        ("query_p50_ms", p.host.p50_ms, "ms");
        ("query_p99_ms", p.host.p99_ms, "ms");
        ("ok_frac", fi (p.attempted - p.failed) /. fi p.attempted, "ratio");
      ]
    in
    { attempted = p.attempted; failed = p.failed; problems = p.problems; e2e = e2e @ w.e2e fx p.first; layers = [] }
  end
  else begin
    let base = phase w fx ~seconds:(seconds /. 2.0) in
    Trace.enabled := true;
    let fx = fresh () in
    let p = phase w fx ~seconds:(seconds /. 2.0) in
    Trace.enabled := false;
    let layers =
      [
        ("trace.query_qps", p.host.qps, "1/s");
        ("trace.overhead_frac", 1.0 -. ratio p.host.qps base.host.qps, "ratio");
      ]
      @ runtime_metrics p.gc
    in
    {
      attempted = base.attempted + p.attempted;
      failed = base.failed + p.failed;
      problems = base.problems @ p.problems;
      e2e = [];
      layers = w.layers fx p.first @ layers;
    }
  end
