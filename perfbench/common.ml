(* Shared plumbing for the workloads: the run context, clocks and
   order statistics, process probes, repeated set-up, and the timed
   operation loop every in-process workload runs. *)

open Dependable_storage

type ctx = {
  seed : int;
  seconds : float;  (** Length of the timed window. *)
  trace : bool;  (** Per-layer run ([--trace 1]) instead of end-to-end. *)
  width : int;  (** Pool width: min nproc (Domain.recommended_domain_count ()). *)
  dstool : string;  (** Path of the dstool binary serve-mix launches. *)
}

(* What a workload hands back to the report writer. [e2e] and [layers]
   carry only the metrics the workload measured; perfbench/run.py fills
   the rest of the per-layer table with zeros (layer not exercised). *)
type result = {
  attempted : int;
  failed : int;
  late : int;
      (** Of [failed], operations whose answer was correct but came after
          the workload's latency limit: they lower [ok_frac] without
          making the run incorrect. *)
  checks_ok : bool;  (** Set-up checks (width identity, repeated set-ups). *)
  e2e : (string * float) list;
  layers : (string * float) list;
  info : string list;  (** Human-readable lines printed before the result. *)
}

let now = Obs.Metrics.now_s

(* ---- Order statistics ---------------------------------------------- *)

(* Linear interpolation between closest ranks (the "inclusive" method of
   Python's statistics.quantiles); nan on an empty sample. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs
let ratio a b = if b > 0. then a /. b else 0.

(* The p50 and p90 of a latency sample in milliseconds, and a line
   stating the sample count and how many samples lie beyond p90 (the
   highest percentile with at least ten beyond it needs n >= 100). *)
let latency_metrics ~what lat =
  let n = List.length lat in
  let ms q = 1000. *. quantile lat q in
  ( [ ("latency_p50_ms", ms 0.5); ("latency_p90_ms", ms 0.9) ],
    Printf.sprintf "latency: %s, n=%d (%d beyond p90), p50 %.2f ms, p90 %.2f ms"
      what n
      (n - int_of_float (Float.ceil (0.9 *. float_of_int n)))
      (ms 0.5) (ms 0.9) )

(* ---- Process probes ------------------------------------------------- *)

(* VmHWM (peak resident set) of a process in MB, from /proc. *)
let peak_rss_mb ?(pid = "self") () =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        (match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
         | Some kb -> float_of_int kb /. 1024.
         | None -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* A fixed single-threaded CPU kernel (integer hashing plus float
   arithmetic), median of five timings. It does no work of the program
   under test: a slow reading flags a busy or throttled host, so a
   neighbour's noise is not read as a regression. Not gated. *)
let calib_ms () =
  let kernel () =
    let t0 = now () in
    let x = ref 1 and acc = ref 0. in
    for i = 1 to 2_000_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      acc := !acc +. (float_of_int (!x land 1023) *. 1e-3) +. sqrt (float_of_int i)
    done;
    ignore (Sys.opaque_identity !acc);
    (now () -. t0) *. 1000.
  in
  median (List.init 5 (fun _ -> kernel ()))

(* ---- Seeds ---------------------------------------------------------- *)

(* Independent non-negative integers derived from the workload seed, one
   per purpose tag, so adding a draw in one place never shifts another. *)
let derive seed tag = Hashtbl.hash (seed, tag) land 0x3fffffff

(* ---- Set-up --------------------------------------------------------- *)

let setup_repeats = 3

(* Run [setup] [setup_repeats] times, tearing each instance down before
   the next starts, and keep the last. Set-up is deterministic, so every
   repeat must yield the same [fingerprint]; [agree] reports whether it
   did. Returns the state, the median set-up time and [agree]. *)
let repeat_setup ?(teardown = ignore) ~fingerprint setup =
  let rec go k last times fps =
    if k = 0 then (last, times, fps)
    else begin
      Option.iter teardown last;
      let t0 = now () in
      let s = setup () in
      let dt = now () -. t0 in
      go (k - 1) (Some s) (dt :: times) (fingerprint s :: fps)
    end
  in
  match go setup_repeats None [] [] with
  | Some s, times, (fp :: _ as fps) ->
    (s, median times, List.for_all (String.equal fp) fps)
  | _ -> assert false

(* ---- The timed loop --------------------------------------------------- *)

(* A workload is a fixed pass of [pass_len] operations, replayed in
   whole passes. [op ~obs j] runs operation [j] of the pass under [obs]
   and returns whether its output was correct; the workload keeps any
   state between operations and resets it at [j = 0]. Whole passes keep
   the mix of operations behind every statistic exactly the pass's.

   After a warm-up, end-to-end mode runs untraced passes: at least one,
   and another whenever the mean pass so far would still end by
   [ctx.seconds]. Per-layer mode runs one untraced pass (the overhead
   baseline and the allocation count), then traced passes by the same
   rule — each operation under a fresh span collector folded into
   [layers]. *)
type loop = {
  lat : float list;  (** Seconds per untraced operation. *)
  ops : int;  (** Untraced operations completed. *)
  pass_s : float;
      (** Median wall time of an untraced pass: a host stall that hits
          one pass of several does not move it. *)
  attempted : int;
  failed : int;
  overhead : float;
      (** Traced over untraced time of the same pass, minus 1 (per-layer
          mode; 0 otherwise). *)
  minor_words_per_op : float;  (** Over the untraced operations. *)
}

let warmup_s = 4.

let run_loop ctx ~layers ~pass_len op =
  let lat = ref [] and attempted = ref 0 and failed = ref 0 in
  let words = ref 0. and passes = ref [] in
  let run_one obs j =
    let t0 = now () in
    let ok = op ~obs j in
    let dt = now () -. t0 in
    incr attempted;
    if not ok then incr failed;
    dt
  in
  let untraced_pass () =
    let w0 = (Gc.quick_stat ()).Gc.minor_words in
    let t = ref 0. in
    for j = 0 to pass_len - 1 do
      let dt = run_one Obs.noop j in
      lat := dt :: !lat;
      t := !t +. dt
    done;
    words := !words +. ((Gc.quick_stat ()).Gc.minor_words -. w0);
    passes := !t :: !passes;
    !t
  in
  let traced_pass () =
    let t = ref 0. in
    for j = 0 to pass_len - 1 do
      t := !t +. Layers.traced layers (fun obs -> run_one obs j)
    done;
    !t
  in
  (* Passes of [pass] while the mean pass would end by the deadline. *)
  let repeat ~deadline pass =
    let t0 = now () in
    let first = pass () in
    let rec more n =
      let mean = (now () -. t0) /. float_of_int n in
      if now () +. mean <= deadline then begin
        ignore (pass ());
        more (n + 1)
      end
    in
    more 1;
    first
  in
  (* Warm-up: whole untraced passes for at least [warmup_s], outside the
     window and the statistics. The first passes of a fresh process run
     up to 2.5x slower while its heap grows; the operations' outputs are
     still checked, and the first pass records what later passes must
     reproduce. *)
  let warm_start = now () in
  while
    ignore (untraced_pass ());
    now () -. warm_start < warmup_s
  do
    ()
  done;
  lat := [];
  words := 0.;
  passes := [];
  let deadline = now () +. ctx.seconds in
  let overhead =
    if ctx.trace then
      let base = untraced_pass () in
      ratio (repeat ~deadline traced_pass) base -. 1.
    else begin
      ignore (repeat ~deadline untraced_pass);
      0.
    end
  in
  let ops = List.length !lat in
  { lat = !lat;
    ops;
    pass_s = median !passes;
    attempted = !attempted;
    failed = !failed;
    overhead;
    minor_words_per_op = ratio !words (float_of_int ops) }

(* Replays must reproduce the first pass: record [x] as position [j]'s
   answer the first time, and afterwards report whether [x] equals it. *)
let same_as_first first j x =
  match first.(j) with
  | None ->
    first.(j) <- Some x;
    true
  | Some x0 -> x = x0

(* The process-level entries every in-process workload reports. *)
let process_layers ctx (l : loop) =
  [ ("gc.minor_words_per_op", l.minor_words_per_op);
    ("trace.overhead_frac", l.overhead);
    ("domains", float_of_int ctx.width) ]
