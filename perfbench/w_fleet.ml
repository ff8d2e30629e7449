(* fleet-drift: the warm-start path. A pod-structured fleet (8 pods of
   four fully connected sites, 8 apps per pod, one shard per pod) is
   cold-solved in set-up; the timed window replays a fixed stream of
   single-app drifts, each followed by [Fleet.resolve] from the previous
   result — Design.rebase, shard reuse and dirty-scoped re-solves. *)

open Dependable_storage
module E = Experiments
module Design_solver = Solver.Design_solver

let pods = 8
let apps_per_pod = 8
let drifts_per_pass = 4 * pods  (* two drifts per shard, then their undoing *)

type state = {
  env : Resources.Env.t;
  params : Design_solver.params;  (** Quick budget, seed 42, the run's width. *)
  cold : Fleet.t;
  floor_ok : bool;  (** The drift-free re-solve was not costlier. *)
}

let bytes (f : Fleet.t) = Design.Design_io.to_string f.Fleet.design
let dollars (f : Fleet.t) = Units.Money.to_dollars f.Fleet.cost

(* A drift-free warm re-solve (one app forced dirty, nothing changed)
   must never return a costlier design than its incumbent. *)
let floor_holds ~params env (incumbent : Fleet.t) =
  let again =
    Fleet.resolve ~params ~dirty:[ 1 ] ~incumbent env incumbent.Fleet.apps
      Failure.Likelihood.default
  in
  dollars again <= dollars incumbent +. 1e-6

let setup (ctx : Common.ctx) () =
  let env = E.Envs.fleet_sites ~pods () in
  let apps = E.Envs.fleet_apps ~pods ~apps_per_pod in
  (* The CLI's default seed: the cold solve is the same for every run;
     the workload seed drives the drift stream. *)
  let budget = E.Budgets.with_seed E.Budgets.quick 42 in
  (* The cold solve and the warm re-solves run at the run's width. A
     single-app drift dirties one shard, so the shard-level pool has one
     task, yet the re-solve still forks and joins domains for its inner
     maps: on a 2-core VM it ran no faster than single-domain, and the
     time it spends in [exec.join_s] is the program's cost, which a
     persistent pool should remove. *)
  let params = { budget.E.Budgets.solver with Design_solver.domains = ctx.width } in
  let cold = Fleet.solve ~params env apps Failure.Likelihood.default in
  { env; params; cold; floor_ok = floor_holds ~params env cold }

(* The drift stream. [Fleet.partition] routes app [id] to shard
   [id mod shards], and [fleet_apps] deals the four Table 1 classes
   round-robin, so each of the 8 shards holds 8 apps of one class. A
   pass doubles the rates of one app in every shard, shard by shard,
   then halves another's, then undoes all 16 drifts in reverse. Which
   apps drift and by how much is fixed; the workload seed only rotates
   the order in which the shards are visited. Shards are disjoint
   failure domains, so the order leaves each re-solve's work alone,
   whereas apps of one class are not the same work: with the apps drawn
   from the seed, the pass time moved by a quarter between seeds and
   repeated for a seed. Powers of two scale exactly, so each pass ends on
   the original workload and its final cost is a warm round trip's
   answer. *)
let schedule seed =
  let shards = pods and per_shard = apps_per_pod in
  let rotation = Common.derive seed "fleet-drift" mod shards in
  let order = Array.init shards (fun k -> (k + rotation) mod shards) in
  (* Shard [s]'s [k]-th app: the ids in 1..64 congruent to s. *)
  let id s k = (if s = 0 then shards else s) + (shards * k) in
  let out =
    Array.append
      (Array.map (fun s -> (id s (s mod per_shard), 2.)) order)
      (Array.map (fun s -> (id s ((s + 3) mod per_shard), 0.5)) order)
  in
  let back = Array.map (fun (id, f) -> (id, 1. /. f)) out in
  Array.append out (Array.of_list (List.rev (Array.to_list back)))

let run (ctx : Common.ctx) =
  let st, setup_s, agree =
    Common.repeat_setup ~fingerprint:(fun st -> bytes st.cold) (setup ctx)
  in
  let drifts = schedule ctx.seed in
  let current = ref st.cold in
  (* Per position of the pass: result bytes and cost of the first pass,
     which every replay must reproduce. *)
  let first = Array.make drifts_per_pass None in
  let evaluations = ref 0 and shards = ref 0 and reused = ref 0 in
  let op ~obs j =
    if j = 0 then current := st.cold;
    let id, factor = drifts.(j) in
    let apps =
      List.map
        (fun (a : Workload.App.t) ->
           if a.Workload.App.id = id then Workload.App.drift ~factor a else a)
        !current.Fleet.apps
    in
    let r =
      Obs.with_span obs "bench.resolve" (fun () ->
          Fleet.resolve ~params:st.params ~obs ~incumbent:!current st.env apps
            Failure.Likelihood.default)
    in
    current := r;
    if obs != Obs.noop then begin
      evaluations := !evaluations + r.Fleet.evaluations;
      shards := !shards + List.length r.Fleet.shard_results;
      reused :=
        !reused + List.length (List.filter (fun s -> s.Fleet.reused) r.Fleet.shard_results)
    end;
    Common.same_as_first first j (bytes r, dollars r) && r.Fleet.unplaced = []
  in
  let layers = Layers.create () in
  let l = Common.run_loop ctx ~layers ~pass_len:drifts_per_pass op in
  (* The floor check again, on the state after the last drift. *)
  let final_floor_ok = floor_holds ~params:st.params st.env !current in
  let cost = Option.fold ~none:0. ~some:snd first.(drifts_per_pass - 1) in
  let traced_ops = float_of_int layers.Layers.ops in
  let latency, latency_line = Common.latency_metrics ~what:"one drift + Fleet.resolve" l.lat in
  let failed = l.failed + if final_floor_ok then 0 else 1 in
  { Common.attempted = l.attempted + 1;
    failed;
    late = 0;
    checks_ok = agree && st.floor_ok;
    e2e =
      [ ("setup_s", setup_s);
        ("peak_rss_mb", Common.peak_rss_mb ());
        ("ok_frac", 1. -. Common.ratio (float_of_int failed) (float_of_int (l.attempted + 1)));
        ("throughput_per_s", Common.ratio (float_of_int drifts_per_pass) l.pass_s);
        ("answer_cost_usd", cost) ]
      @ latency;
    layers =
      Layers.report layers
      @ [ ("fleet.resolve_self_ms", 1000. *. Layers.span_self_per_op layers "fleet.resolve");
          ("fleet.shards_reused_ratio", Common.ratio (float_of_int !reused) (float_of_int !shards));
          ("fleet.shards", Common.ratio (float_of_int !shards) traced_ops);
          ("fleet.evals_per_resolve", Common.ratio (float_of_int !evaluations) traced_ops) ]
      @ Common.process_layers ctx l;
    info =
      [ Printf.sprintf "fleet-drift: %d pods x %d apps, %d shards, cold cost $%.0f \
                        (set-up); %d drifts per pass, re-solved warm; width %d"
          pods apps_per_pod (List.length st.cold.Fleet.shard_results) (dollars st.cold)
          drifts_per_pass ctx.width;
        Printf.sprintf "throughput: %d resolves; median pass %.3f s" l.ops l.pass_s;
        latency_line;
        Printf.sprintf "answer: fleet cost after one pass $%.0f; anytime floor %s"
          cost (if st.floor_ok && final_floor_ok then "ok" else "BROKEN") ] }
