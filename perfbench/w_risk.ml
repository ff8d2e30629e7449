(* risk: certify a fixed set of designs, made in set-up, with both Monte
   Carlo estimators. Each operation runs [Year_sim] and [Tail_sim] over
   one design on the run's pool, then [Tail_sim.certify] at eleven
   nines. The estimators and the recovery kernel dominate; the solver is
   absent from the timed window, and [Exec] runs at 1,024-year-chunk
   grain. *)

open Dependable_storage
module E = Experiments
module Money = Units.Money
module Tail_sim = Risk.Tail_sim

let year_sim_years = 24_576
let tail_sim_years = 24_576
let availability = 0.99999999999

(* Correctness checks compare estimates at this many standard errors —
   wide enough that an honest estimator fails a check about once in
   16,000 draws, so a failed check means a wrong number, not bad luck. *)
let check_sigmas = 4.

type subject = {
  name : string;
  prov : Design.Provision.t;
  likelihood : Failure.Likelihood.t;
  analytic : float;  (** Penalty.expected_annual total, dollars. *)
  outlay : float;  (** Amortized annual outlay, dollars. *)
}

let low_rates =
  Failure.Likelihood.v ~data_object_per_year:(Failure.Likelihood.per_years 10.)
    ~array_per_year:(Failure.Likelihood.per_years 20.)
    ~site_per_year:(Failure.Likelihood.per_years 100.)

let subject name design likelihood =
  match Design.Provision.minimum design with
  | Error _ -> None
  | Ok prov ->
    let pen = Cost.Penalty.expected_annual prov likelihood in
    let eval = Cost.Evaluate.provisioned prov likelihood in
    Some
      { name;
        prov;
        likelihood;
        analytic = Money.to_dollars (Money.add pen.Cost.Penalty.outage_total pen.Cost.Penalty.loss_total);
        outlay = Money.to_dollars eval.Cost.Evaluate.summary.Cost.Summary.outlay }

(* The tape-heavy twin of a design: every application with a tape
   backup slot is moved to the tape-only technique on the same primary
   and tape slots, dropping its mirror. A what-if design for the risk
   audit, not a solver answer. *)
let tape_heavy design =
  let module D = Design.Design in
  let module A = Design.Assignment in
  List.fold_left
    (fun d (a : A.t) ->
       match
         (a.A.backup, D.array_model design a.A.primary,
          Option.bind a.A.backup (D.tape_model design))
       with
       | Some backup, Some primary_model, Some tape_model ->
         let tape =
           A.v ~app:a.A.app ~technique:Protection.Technique_catalog.tape_backup
             ~primary:a.A.primary ~backup ()
         in
         (match D.add (D.remove d a.A.app.Workload.App.id) tape ~primary_model ~tape_model () with
          | Ok d' -> d'
          | Error _ -> d)
       | _ -> d)
    design (D.assignments design)

(* Four subjects: the peer case study solved (quick budget, the CLI's
   default seed 42) under the paper's failure rates and under rare
   failures — mirror-heavy designs — plus the tape-heavy twin of each.
   The designs are fixed; the workload seed drives only the Monte Carlo
   streams. *)
let subjects () =
  let env = E.Envs.peer_sites () and apps = E.Envs.peer_apps () in
  List.concat_map
    (fun (tag, likelihood) ->
       match
         Solver.Design_solver.solve ~params:E.Budgets.quick.E.Budgets.solver env apps
           likelihood
       with
       | None -> []
       | Some o ->
         let d = o.Solver.Design_solver.best.Solver.Candidate.design in
         List.filter_map Fun.id
           [ subject (tag ^ "/mirror") d likelihood;
             subject (tag ^ "/tape") (tape_heavy d) likelihood ])
    [ ("paper-rates", Failure.Likelihood.default); ("rare-rates", low_rates) ]

type answer = {
  year_mean : float;
  tail_mean : Tail_sim.estimate;
  unavail : Tail_sim.estimate;
  verdict : Tail_sim.verdict;
  ess : float;
}

(* One certification, on a fresh auto-width pool as [dstool risk]
   creates per invocation: the pool's learned stage widths are timing
   dependent, and one pool shared by the whole window would carry its
   first guesses into every later operation. *)
let certify ~obs ~width ~seed j s =
  let pool = Exec.auto_width (Exec.create ~domains:width ()) in
  let rng = Prng.Rng.of_int (Common.derive seed ("risk", j)) in
  let ys =
    Obs.with_span obs "bench.year_sim" (fun () ->
        Risk.Year_sim.simulate ~years:year_sim_years ~obs ~pool rng s.prov s.likelihood)
  in
  let ts =
    Obs.with_span obs "bench.tail_sim" (fun () ->
        Tail_sim.simulate ~years:tail_sim_years ~obs ~pool (Prng.Rng.split rng) s.prov
          s.likelihood)
  in
  let cert =
    Obs.with_span obs "bench.certify" (fun () -> Tail_sim.certify ts ~availability)
  in
  ( ys,
    { year_mean = Money.to_dollars ys.Risk.Year_sim.mean;
      tail_mean = ts.Tail_sim.mean_total;
      unavail = ts.Tail_sim.unavailability;
      verdict = cert.Tail_sim.verdict;
      ess = ts.Tail_sim.ess } )

(* Year_sim's own standard error, from its yearly totals. *)
let year_std_error (ys : Risk.Year_sim.t) =
  let xs = ys.Risk.Year_sim.sorted_totals in
  let n = float_of_int (Array.length xs) in
  let mean = Array.fold_left ( +. ) 0. xs /. n in
  let var = Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. (n -. 1.) in
  sqrt (var /. n)

(* Tail_sim's mean_total must cover the analytic expectation, and
   Year_sim's mean must agree with Tail_sim's, each to [check_sigmas]
   standard errors (of the difference, for the two-estimator check). *)
let consistent s ys a =
  let se = a.tail_mean.Tail_sim.std_error in
  Float.abs (a.tail_mean.Tail_sim.value -. s.analytic) <= check_sigmas *. se
  && Float.abs (a.year_mean -. a.tail_mean.Tail_sim.value)
     <= check_sigmas *. sqrt ((se *. se) +. (year_std_error ys ** 2.))

let half_width_rel (e : Tail_sim.estimate) =
  Common.ratio ((e.Tail_sim.upper -. e.Tail_sim.lower) /. 2.) e.Tail_sim.value

let run (ctx : Common.ctx) =
  let fingerprint subs =
    String.concat ";"
      (List.map (fun s -> Printf.sprintf "%s:%h:%h" s.name s.analytic s.outlay) subs)
  in
  let subs, setup_s, agree = Common.repeat_setup ~fingerprint subjects in
  let subs = Array.of_list subs in
  let pass_len = Array.length subs in
  let first = Array.make pass_len None in
  let op ~obs j =
    let ys, a = certify ~obs ~width:ctx.width ~seed:ctx.seed j subs.(j) in
    Common.same_as_first first j a && consistent subs.(j) ys a
  in
  let layers = Layers.create () in
  let l = Common.run_loop ctx ~layers ~pass_len op in
  let answers = List.filter_map Fun.id (Array.to_list first) in
  let cost =
    Common.sum
      (List.mapi (fun j a -> subs.(j).outlay +. a.tail_mean.Tail_sim.upper) answers)
  in
  let mean f = Common.sum (List.map f answers) /. float_of_int pass_len in
  let ci_rel = mean (fun a -> half_width_rel a.unavail) in
  let ess = mean (fun a -> a.ess) in
  let years_per_op = float_of_int (year_sim_years + tail_sim_years) in
  let latency, latency_line = Common.latency_metrics ~what:"certify one design" l.lat in
  { Common.attempted = l.attempted;
    failed = l.failed;
    late = 0;
    checks_ok = agree && pass_len = 4;
    e2e =
      [ ("setup_s", setup_s);
        ("peak_rss_mb", Common.peak_rss_mb ());
        ("ok_frac", 1. -. Common.ratio (float_of_int l.failed) (float_of_int l.attempted));
        ("throughput_per_s", Common.ratio (years_per_op *. float_of_int pass_len) l.pass_s);
        ("answer_cost_usd", cost) ]
      @ latency;
    layers =
      Layers.report layers
      @ [ ("risk.year_sim_s", Layers.span_total_per_op layers "bench.year_sim");
          ("risk.tail_sim_s", Layers.span_total_per_op layers "bench.tail_sim");
          ("risk.tail.ess", ess);
          ("risk.ci_rel", ci_rel) ]
      @ Common.process_layers ctx l;
    info =
      [ Printf.sprintf "risk: %d designs (%s), %d + %d years each, width %d"
          pass_len
          (String.concat ", " (Array.to_list (Array.map (fun s -> s.name) subs)))
          year_sim_years tail_sim_years ctx.width;
        Printf.sprintf "throughput: %d certifications of %.0f simulated years; median \
                        pass %.3f s"
          l.ops years_per_op l.pass_s;
        latency_line;
        Printf.sprintf "answer: outlay + 99%% upper bound of expected annual penalty, \
                        summed, $%.0f; mean unavailability CI half-width %.4f of the \
                        estimate; verdicts %s"
          cost ci_rel
          (String.concat " " (List.map (fun a -> Tail_sim.verdict_to_string a.verdict) answers)) ] }
