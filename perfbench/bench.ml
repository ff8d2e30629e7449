(* The benchmark behind BENCHMARK.json.

     bench.exe --workload design|risk|fleet-drift|serve-mix --seed N
               --seconds S --trace 0|1 [--nproc N] [--dstool PATH]

   Builds the workload's inputs from the seed, sets up (three times; the
   median is setup_s), runs the timed window, checks every output, and
   prints human-readable lines followed by one JSON object on the last
   line: {"correct", "attempted", "failed", "metrics"}, where metrics maps
   each metric the workload measured to its value — the end-to-end ones
   with --trace 0, the per-layer ones, from a separate traced run, with
   --trace 1. perfbench/run.py builds this program and dstool from
   source, forwards its arguments, and completes the result against
   BENCHMARK.json (units; per-layer metrics a workload does not exercise
   read 0; a missing end-to-end metric is an error). *)

let workloads =
  [ ("design", W_design.run);
    ("risk", W_risk.run);
    ("fleet-drift", W_fleet.run);
    ("serve-mix", W_serve.run) ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload design|risk|fleet-drift|serve-mix --seed N \
     --seconds S --trace 0|1 [--nproc N] [--dstool PATH]";
  exit 2

(* A metric that could not be measured (no samples) reads 0 and makes
   the run incorrect. *)
let finite = ref true

let json_number name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    Printf.printf "metric %s was not measured\n" name;
    finite := false;
    "0"
  end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get key = List.assoc_opt key opts in
  let int key = Option.bind (get key) int_of_string_opt in
  let workload, run =
    match Option.bind (get "workload") (fun w -> Option.map (fun r -> (w, r)) (List.assoc_opt w workloads)) with
    | Some wr -> wr
    | None -> usage ()
  in
  let seed, seconds, trace =
    match (int "seed", Option.bind (get "seconds") float_of_string_opt, int "trace") with
    | Some s, Some t, Some (0 | 1 as tr) when t > 0. -> (s, t, tr = 1)
    | _ -> usage ()
  in
  let recommended = Domain.recommended_domain_count () in
  let nproc = Option.value ~default:recommended (int "nproc") in
  let width = max 1 (min nproc recommended) in
  let ctx =
    { Common.seed;
      seconds;
      trace;
      width;
      dstool = Option.value ~default:"_build/default/bin/dstool.exe" (get "dstool") }
  in
  (* The host-drift diagnostic, read before and after the run. *)
  let calib_before = Common.calib_ms () in
  let r = run ctx in
  let calib_after = Common.calib_ms () in
  Printf.printf "workload %s, seed %d, %.0f s window, %s run; nproc %d, \
                 recommended domains %d, width %d; calib_ms %.2f before, %.2f after\n"
    workload seed seconds (if trace then "per-layer" else "end-to-end") nproc recommended width
    calib_before calib_after;
  List.iter print_endline r.Common.info;
  if not r.Common.checks_ok then print_endline "set-up checks FAILED";
  let measured =
    if trace then ("calib_ms", calib_before) :: r.Common.layers else r.Common.e2e
  in
  let metrics =
    List.map (fun (name, v) -> Printf.sprintf "%S: %s" name (json_number name v)) measured
  in
  if trace then List.iter (fun (name, v) -> Printf.printf "  %-28s %g\n" name v) r.Common.layers;
  (* A late serve-mix reply is a failed operation but a correct answer. *)
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.Common.checks_ok && r.Common.failed = r.Common.late && !finite)
    r.Common.attempted r.Common.failed (String.concat ", " metrics)
