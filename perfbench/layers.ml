(* Per-layer accounting for the traced run.

   Two sources feed the per-layer table. In-process workloads run each
   traced operation under the program's own capability,
   [Obs.attach ~metrics ~trace], with one metrics registry for the
   whole window and a fresh span collector per operation; after the
   operation its spans are folded into per-name count / total / self
   time and the collector is dropped, so memory stays bounded by one
   operation's spans. serve-mix reads the daemon's registry through its
   [metrics] method instead and has no spans.

   Self time of a span is its duration minus the time its direct
   children on the same lane cover; worker-domain lanes are separate
   lanes, so a parallel region's self time is the coordinator's share. *)

open Dependable_storage
module Metrics = Obs.Metrics
module Trace = Obs.Trace

type span_stat = { mutable count : int; mutable total_s : float; mutable self_s : float }

type inst =
  | Num of float  (** Counter or gauge. *)
  | Hist of { count : float; total : float; p50 : float; p90 : float }
      (** Duration histogram, seconds. *)

type t = {
  registry : Metrics.registry;
  spans : (string, span_stat) Hashtbl.t;
  mutable ops : int;  (** Traced operations folded in. *)
}

let create () =
  { registry = Metrics.create (); spans = Hashtbl.create 64; ops = 0 }

let stat t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None ->
    let s = { count = 0; total_s = 0.; self_s = 0. } in
    Hashtbl.add t.spans name s;
    s

let ns x = Int64.to_float x /. 1e9

(* Fold one collector's spans into [t.spans]. Spans are ordered by lane,
   start, then depth (a parent opened in the same nanosecond as its
   first child sorts first); a stack of open spans finds each span's
   parent as the innermost one still containing it. *)
let fold_spans t collector =
  let spans = Array.of_list (Trace.spans collector) in
  Array.stable_sort
    (fun (a : Trace.span) (b : Trace.span) ->
       compare (a.tid, a.start_ns, a.depth) (b.tid, b.start_ns, b.depth))
    spans;
  let close (name, dur, child) =
    let s = stat t name in
    s.count <- s.count + 1;
    s.total_s <- s.total_s +. ns dur;
    s.self_s <- s.self_s +. Float.max 0. (ns (Int64.sub dur !child))
  in
  let stack = ref [] and lane = ref (-1) in
  Array.iter
    (fun (s : Trace.span) ->
       if s.tid <> !lane then begin
         List.iter (fun (_, frame) -> close frame) !stack;
         stack := [];
         lane := s.tid
       end;
       let stop = Int64.add s.start_ns s.dur_ns in
       let rec unwind () =
         match !stack with
         | (top_stop, frame) :: rest when Int64.compare stop top_stop > 0 ->
           close frame;
           stack := rest;
           unwind ()
         | _ -> ()
       in
       unwind ();
       (match !stack with
        | (_, (_, _, child)) :: _ -> child := Int64.add !child s.dur_ns
        | [] -> ());
       stack := (stop, (s.name, s.dur_ns, ref 0L)) :: !stack)
    spans;
  List.iter (fun (_, frame) -> close frame) !stack

(* Run [f] as one traced operation: a fresh collector sharing the
   window's registry, folded after [f] returns. *)
let traced t f =
  let collector = Trace.create () in
  let obs = Obs.attach ~metrics:t.registry ~trace:collector () in
  let r = f obs in
  fold_spans t collector;
  t.ops <- t.ops + 1;
  r

let of_registry registry =
  List.map
    (fun (name, v) ->
       ( name,
         match v with
         | Metrics.Counter_value n -> Num (float_of_int n)
         | Metrics.Gauge_value g -> Num g
         | Metrics.Histogram_value h ->
           Hist
             { count = float_of_int h.Metrics.snap_count;
               total = h.Metrics.snap_total;
               p50 = h.Metrics.snap_p50;
               p90 = h.Metrics.snap_p90 } ))
    (Metrics.snapshot registry)

(* The daemon's [metrics] reply: counters and gauges as numbers,
   histograms as {count,total_s,...,p50_s,p90_s} objects. *)
let of_json json =
  let module J = Server.Json in
  let num k o = Option.value ~default:0. (Option.bind (J.member k o) J.num_opt) in
  match json with
  | J.Obj members ->
    List.filter_map
      (fun (name, v) ->
         match v with
         | J.Num x -> Some (name, Num x)
         | J.Obj _ ->
           Some
             ( name,
               Hist
                 { count = num "count" v;
                   total = num "total_s" v;
                   p50 = num "p50_s" v;
                   p90 = num "p90_s" v } )
         | _ -> None)
      members
  | _ -> []

(* [after - before] for counts and totals; percentiles stay [after]'s
   (histograms cannot be subtracted bucket-wise through this view). *)
let diff ~before after =
  List.map
    (fun (name, v) ->
       match v, List.assoc_opt name before with
       | Num a, Some (Num b) -> (name, Num (a -. b))
       | Hist a, Some (Hist b) ->
         (name, Hist { a with count = a.count -. b.count; total = a.total -. b.total })
       | v, _ -> (name, v))
    after

(* The per-layer entries common to every workload that runs the solver
   stack, from instruments [insts], span statistics [spans] (empty when
   the layer ran out of process) and the number of operations [ops]. *)
let derive ~ops ?spans insts =
  let per_op x = if ops > 0 then x /. float_of_int ops else 0. in
  let ratio a b = if b > 0. then a /. b else 0. in
  let num name =
    match List.assoc_opt name insts with
    | Some (Num v) -> v
    | Some (Hist h) -> h.count
    | None -> 0.
  in
  let htotal name =
    match List.assoc_opt name insts with Some (Hist h) -> h.total | _ -> 0.
  in
  let span name =
    match Option.bind spans (fun t -> Hashtbl.find_opt t.spans name) with
    | Some s -> s
    | None -> { count = 0; total_s = 0.; self_s = 0. }
  in
  let self name = (span name).self_s in
  let hits = num "config.cache_hits" and misses = num "config.cache_misses" in
  let busy = htotal "exec.worker_busy_s" and idle = htotal "exec.worker_idle_s" in
  let scen = span "recovery.scenario" and config = span "config.solve" in
  [ ("exec.maps", per_op (num "exec.maps"));
    ("exec.tasks", per_op (num "exec.tasks"));
    ("exec.spawn_s", per_op (htotal "exec.spawn_s"));
    ("exec.join_s", per_op (htotal "exec.join_s"));
    ("exec.idle_frac", ratio idle (busy +. idle));
    ("solver.greedy_self_s", per_op (self "solver.greedy"));
    ("solver.refit_self_s", per_op (self "solver.refit"));
    ("solver.polish_self_s", per_op (self "solver.polish"));
    ("solver.evaluations", per_op (num "solver.evaluations"));
    ("config.solves", per_op (num "config.solves"));
    ("config.solve_self_ms", 1000. *. ratio config.self_s (float_of_int config.count));
    ("config.window_trials", per_op (num "config.window_trials"));
    ("config.growth_steps", per_op (num "config.growth_steps"));
    ("config.unnamed_frac", ratio config.self_s config.total_s);
    ("config.cache_hit_ratio", ratio hits (hits +. misses));
    ("config.cache_lookups", per_op (hits +. misses));
    ("config.cache_evictions", per_op (num "config.cache_evictions"));
    ("memo.lock_wait_s", per_op (htotal "memo.lock_wait_s"));
    ("recovery.scenarios", per_op (num "recovery.scenarios"));
    ("recovery.scenario_us", 1e6 *. ratio scen.total_s (float_of_int scen.count));
    ("sim.events", per_op (num "sim.events"));
    ("cost.evaluations", per_op (num "cost.evaluations"));
    ("portfolio.restarts_run", per_op (num "portfolio.restarts"));
    ("portfolio.restart_self_s", per_op (self "portfolio.restart"));
    ("risk.years", per_op (num "risk.years"));
    ("risk.tail.years", per_op (num "risk.tail.years"));
    ("ops", float_of_int ops) ]

(* [derive] over a traced in-process window. *)
let report t = derive ~ops:t.ops ~spans:t (of_registry t.registry)

let span_self_per_op t name =
  match Hashtbl.find_opt t.spans name with
  | Some s when t.ops > 0 -> s.self_s /. float_of_int t.ops
  | _ -> 0.

let span_total_per_op t name =
  match Hashtbl.find_opt t.spans name with
  | Some s when t.ops > 0 -> s.total_s /. float_of_int t.ops
  | _ -> 0.
