(* In-memory spans recorded by the benchmark around its calls into each
   layer's public functions.  A span has a name, a host start and end,
   its parent span and its request id; replayed layers (work that only
   happens inside another call, re-run here through the layer's own
   entry point) are flagged.  Spans are written out when the run ends;
   per-name totals and self times cover every span.

   Disabled (the default), [span] is a direct call: the untraced runs
   that give the end-to-end metrics pay one branch per span site. *)

let enabled = ref false
let now_ns () = Int64.to_int (Vfs.Clock.Monotonic.now_ns ())

type span = {
  id : int;
  req : int;
  parent : int;  (** -1 for a request's root *)
  name : string;
  replay : bool;
  start_ns : int;
  end_ns : int;
  self_ns : int;  (** duration minus the time its child spans cover *)
}

(* Spans kept for writing out: the first [keep] of a run.  Aggregates
   below cover every span. *)
let keep = 100_000
let spans : span list ref = ref []
let kept = ref 0

(* Per span name: (count, total ns, self ns). *)
let totals : (string, int * int * int) Hashtbl.t = Hashtbl.create 32
let next_id = ref 0
let req = ref 0

(* The open spans, innermost first: (id, time covered by children). *)
let stack : (int * int ref) list ref = ref []

let new_request () = incr req

let span ?(replay = false) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with (p, _) :: _ -> p | [] -> -1 in
    let children = ref 0 in
    stack := (id, children) :: !stack;
    let start_ns = now_ns () in
    let finish () =
      let end_ns = now_ns () in
      stack := List.tl !stack;
      let dur = end_ns - start_ns in
      (match !stack with (_, c) :: _ -> c := !c + dur | [] -> ());
      let self_ns = dur - !children in
      let n, tot, self = Option.value (Hashtbl.find_opt totals name) ~default:(0, 0, 0) in
      Hashtbl.replace totals name (n + 1, tot + dur, self + self_ns);
      if !kept < keep then begin
        incr kept;
        spans := { id; req = !req; parent; name; replay; start_ns; end_ns; self_ns } :: !spans
      end
    in
    Fun.protect ~finally:finish f
  end

let reset () =
  spans := [];
  kept := 0;
  Hashtbl.reset totals;
  next_id := 0;
  req := 0;
  stack := []

let self_us_mean name =
  match Hashtbl.find_opt totals name with
  | Some (n, _, self) when n > 0 -> float_of_int self /. float_of_int n /. 1000.0
  | _ -> 0.0

let total_ns name = match Hashtbl.find_opt totals name with Some (_, t, _) -> t | None -> 0
let self_ns name = match Hashtbl.find_opt totals name with Some (_, _, s) -> s | None -> 0

(* One span per line, oldest first:
   id req parent name replay start_ns end_ns self_ns *)
let write ~file =
  let dir = Filename.dirname file in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out file in
  output_string oc "id\treq\tparent\tname\treplay\tstart_ns\tend_ns\tself_ns\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n" s.id s.req s.parent s.name
        (if s.replay then 1 else 0)
        s.start_ns s.end_ns s.self_ns)
    (List.rev !spans);
  close_out oc

(* The per-span-name table a traced run prints on stderr. *)
let report ~file =
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) totals [] |> List.sort compare in
  let replayed = Hashtbl.create 16 in
  List.iter (fun s -> if s.replay then Hashtbl.replace replayed s.name ()) !spans;
  Printf.eprintf "%-24s %10s %12s %12s  %s\n" "span" "count" "mean_us" "self_us" "kind";
  List.iter
    (fun (name, (n, tot, self)) ->
      Printf.eprintf "%-24s %10d %12.2f %12.2f  %s\n" name n
        (float_of_int tot /. float_of_int n /. 1000.0)
        (float_of_int self /. float_of_int n /. 1000.0)
        (if Hashtbl.mem replayed name then "replay" else "in-path"))
    rows;
  Printf.eprintf "spans: %d recorded, first %d written to %s\n%!" !next_id !kept file
