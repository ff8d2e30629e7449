(* design: cold design problems on both paper environments, solved the
   way [dstool solve --budget quick --domains W] solves them — a fresh
   configuration memo per solve, single runs through
   [Design_solver.solve], small portfolios through [Search.run] with
   racing off (the CLI default). The solver ladder does almost all the
   work: design stages, configuration solver, recovery simulation and
   fine-grained [Exec] maps. *)

open Dependable_storage
module E = Experiments
module Design_solver = Solver.Design_solver

type shape = Single | Portfolio of int

type problem = {
  label : string;
  env : Resources.Env.t;
  apps : Workload.App.t list;
  shape : shape;
  solver_seed : int;
}

(* The fixed pass of 36 problems, each solved with the quick budget:

   - 1 quad problem (16 apps, 4 fully connected sites), solver seed 42;
   - 1 two-restart portfolio on peer (8 apps, 2 sites), seed 42;
   - 3 single solves on peer, seeds 42, 44 and 46;
   - 31 single solves on peer restricted to two of its apps (the pairs
     1-2, 3-4, 5-6, 7-8 in turn), seeds 42 up.

   The two-app problems make the window hold at least 100 problems on
   two cores (a quick peer solve takes about 0.3 s, a quad one 1.4 s, a
   two-app one 40 ms), so the p90 has ten samples beyond it. The shares
   place both percentiles inside one population, not on a boundary
   between two kinds of problem: the two dearest problems are 1 in 18 of
   the pass and the peer solves the next 1 in 12, so the p90 falls among
   the peer solves (whose seeds were picked for similar run times), and
   the p50 among the two-app ones. Solver seeds are fixed: a quick
   solve's run time and answer move by tens of percent from one solver
   seed to the next, so seed-drawn problems would make every run a
   different amount of work. The workload seed rotates the pass, so runs
   differ in where the replay starts. *)
let plan =
  [ ("quad", None, Single, 42); ("peer", None, Portfolio 2, 42);
    ("peer", None, Single, 42); ("peer", None, Single, 44); ("peer", None, Single, 46) ]
  @ List.init 31 (fun i -> ("peer", Some (2 * (i mod 4)), Single, 42 + i))

let problems seed =
  let pass =
    List.map
      (fun (env_name, pair, shape, solver_seed) ->
         (* Same env/app construction as dstool's --env peer / --env quad. *)
         let env, apps =
           match env_name with
           | "peer" -> (E.Envs.peer_sites (), E.Envs.peer_apps ())
           | _ -> (E.Envs.quad_sites (), Workload.Workload_catalog.mix ~count:16)
         in
         match pair with
         | None -> { label = env_name; env; apps; shape; solver_seed }
         | Some first ->
           { label = "peer-2"; env; apps = List.filteri (fun i _ -> i = first || i = first + 1) apps;
             shape; solver_seed })
      plan
  in
  let k = Common.derive seed "design" mod List.length pass in
  Array.of_list (List.filteri (fun i _ -> i >= k) pass @ List.filteri (fun i _ -> i < k) pass)

(* Solve one problem; [Some (design bytes, annual cost in dollars)]. *)
let solve ?(obs = Obs.noop) ~width p =
  let budget =
    E.Budgets.with_domains (E.Budgets.with_seed E.Budgets.quick p.solver_seed) width
  in
  let likelihood = Failure.Likelihood.default in
  let best =
    match p.shape with
    | Single ->
      Obs.with_span obs "bench.solve" (fun () ->
          Design_solver.solve ~params:budget.E.Budgets.solver ~obs p.env p.apps
            likelihood)
      |> Option.map (fun o -> o.Design_solver.best)
    | Portfolio restarts ->
      let budget = E.Budgets.with_portfolio budget restarts in
      let pool = Exec.auto_width (Exec.create ~domains:width ()) in
      Obs.with_span obs "bench.portfolio" (fun () ->
          Search.run ~restarts ~race:budget.E.Budgets.race
            ?max_evaluations:budget.E.Budgets.portfolio_evaluations
            ~params:budget.E.Budgets.solver ~pool ~obs p.env p.apps likelihood)
      |> Option.map (fun r -> r.Search.best)
  in
  Option.map
    (fun c ->
       ( Design.Design_io.to_string c.Solver.Candidate.design,
         Units.Money.to_dollars (Solver.Candidate.cost c) ))
    best

let run (ctx : Common.ctx) =
  (* Set-up builds the problem list and checks that a peer problem's
     design is byte-identical at width 1 and at the run's width. *)
  let setup () =
    let ps = problems ctx.seed in
    let peer = List.find (fun p -> p.label = "peer" && p.shape = Single) (Array.to_list ps) in
    let narrow = solve ~width:1 peer and wide = solve ~width:ctx.width peer in
    (ps, narrow <> None && narrow = wide)
  in
  let (ps, width_ok), setup_s, agree =
    Common.repeat_setup ~fingerprint:(fun (_, ok) -> string_of_bool ok) setup
  in
  let pass_len = Array.length ps in
  (* Every replay of a problem must return the first pass's bytes. *)
  let first = Array.make pass_len None in
  let op ~obs j =
    match solve ~obs ~width:ctx.width ps.(j) with
    | None -> false
    | Some r -> Common.same_as_first first j r
  in
  let layers = Layers.create () in
  let l = Common.run_loop ctx ~layers ~pass_len op in
  let cost = Array.fold_left (fun acc r -> acc +. Option.fold ~none:0. ~some:snd r) 0. first in
  let latency, latency_line = Common.latency_metrics ~what:"one design problem" l.lat in
  (* Median time per kind of problem: [l.lat] holds whole passes, newest
     first. *)
  let by_kind =
    let kinds = List.sort_uniq compare (Array.to_list (Array.map (fun p -> p.label) ps)) in
    let lat = Array.of_list (List.rev l.lat) in
    List.map
      (fun kind ->
         let xs = List.filteri (fun i _ -> ps.(i mod pass_len).label = kind) (Array.to_list lat) in
         Printf.sprintf "%s %.0f ms" kind (1000. *. Common.median xs))
      kinds
  in
  { Common.attempted = l.attempted;
    failed = l.failed;
    late = 0;
    checks_ok = width_ok && agree;
    e2e =
      [ ("setup_s", setup_s);
        ("peak_rss_mb", Common.peak_rss_mb ());
        ("ok_frac", 1. -. Common.ratio (float_of_int l.failed) (float_of_int l.attempted));
        ("throughput_per_s", Common.ratio (float_of_int pass_len) l.pass_s);
        ("answer_cost_usd", cost) ]
      @ latency;
    layers =
      Layers.report layers
      @ Common.process_layers ctx l;
    info =
      [ Printf.sprintf "design: %d problems per pass (1 quad; 1 peer portfolio of 2; 3 peer; \
                        31 peer with 2 apps), quick budget, width %d; width-1 identity %s"
          pass_len ctx.width (if width_ok then "ok" else "FAILED");
        Printf.sprintf "throughput: %d problems; median pass %.3f s" l.ops l.pass_s;
        latency_line;
        "median per kind: " ^ String.concat ", " by_kind;
        Printf.sprintf "answer: summed annual cost of one pass $%.0f" cost ] }
