(* serve-mix: [dstool serve] in its own process at pool width = cores
   and default admission, driven by one generator process over one TCP
   connection: the main thread writes requests on schedule, a reader
   thread collects replies. The daemon's per-connection reader enqueues
   heavy requests and keeps reading, so one connection carries an open
   loop ([Server.Client] allows only one request in flight, and an
   in-process daemon would share the generator's runtime lock).

   Traffic: peer solves at the quick budget. Most requests hit a small
   popular set (resident-memo reads); one in [fresh_every] is a problem
   never seen before (memo writes, then evictions once the 4,096-entry
   cache fills). After a warm-up the window has two phases: an open
   loop at [rate] requests/s, timed from each request's due time, then a
   closed loop of popular requests keeping [window] outstanding, whose
   completion rate is the daemon's service rate for memo-served
   traffic. *)

open Dependable_storage
module E = Experiments
module Json = Server.Json
module Protocol = Server.Protocol

let rate = 8.  (* open-loop requests per second *)
let limit_s = 2.0
(* An open-loop reply later than [limit_s] counts as failed and lowers
   ok_frac, but a correct late answer leaves the run correct: lateness is
   a timing result, which ok_frac's bound gates. *)
let fresh_every = 16
(* Requests outstanding in the closed loop. The daemon's workers are
   systhreads sharing one runtime lock, so more outstanding requests
   interleave rather than overlap: with 4 the completion rate moved by
   half between runs, with 1 by a few percent. *)
let window = 1
let open_share = 0.7  (* of the window spent in the open loop *)
let fresh_checked = 3  (* fresh open-loop replies re-solved in process *)
let reply_timeout_s = 30.

(* ---- Requests ------------------------------------------------------ *)

(* A peer solve at the quick budget: a popular seed under the paper's
   failure rates, or a fresh problem — a popular seed under a site
   failure rate no earlier request used. Fresh problems miss the memo
   on every configuration solve (the likelihood is part of the key) yet
   cost what their popular twin costs cold, so a run's work does not
   hinge on which seeds the stream happened to draw: a quick solve's
   time moves by a factor of four from one solver seed to the next. *)
type kind = Popular of int | Fresh of int * float  (** popular index, site rate *)

let popular_seeds = [| 42; 43; 44; 45 |]

let site_rate = Failure.Likelihood.default.Failure.Likelihood.site_per_year

let likelihood rate =
  let d = Failure.Likelihood.default in
  Failure.Likelihood.v ~data_object_per_year:d.Failure.Likelihood.data_object_per_year
    ~array_per_year:d.Failure.Likelihood.array_per_year ~site_per_year:rate

let params_of = function
  | Popular k ->
    Json.Obj
      [ ("env", Json.Str "peer"); ("budget", Json.Str "quick");
        ("seed", Json.Num (float_of_int popular_seeds.(k))) ]
  | Fresh (k, rate) ->
    Json.Obj
      [ ("env", Json.Str "peer"); ("budget", Json.Str "quick");
        ("seed", Json.Num (float_of_int popular_seeds.(k)));
        ("site_rate", Json.Num rate) ]

(* What the daemon must answer, computed the way [dstool solve --budget
   quick] does. *)
let in_process kind =
  let k, rate = match kind with Popular k -> (k, site_rate) | Fresh (k, r) -> (k, r) in
  let budget = E.Budgets.with_seed E.Budgets.quick popular_seeds.(k) in
  Solver.Design_solver.solve ~params:budget.E.Budgets.solver (E.Envs.peer_sites ())
    (E.Envs.peer_apps ()) (likelihood rate)
  |> Option.fold ~none:"" ~some:(fun o ->
      Design.Design_io.to_string o.Solver.Design_solver.best.Solver.Candidate.design)

(* Popularity within each cycle of [fresh_every] requests: after the
   fresh slot, 15 popular ones in the ratio 10:3:1:1. With equal shares
   the p50 sat on the boundary between the cheaper and the dearer pair of
   seeds and jumped between runs; a dominant seed keeps it inside one
   population. *)
let popular_cycle = [| 0; 1; 0; 0; 2; 0; 1; 0; 0; 3; 0; 0; 1; 0; 0 |]

(* Request [i] of the window. The pattern is fixed — every
   [fresh_every]-th request fresh, its twin cycling through the popular
   set, the rest following [popular_cycle] — so every run offers the same
   work in the same order (a seeded shuffle moved the open loop's p90
   by a third between seeds). The workload seed rotates the pattern and
   sets the fresh rate perturbations: below 0.2%, distinct per request. *)
let schedule seed n =
  let rotation = Common.derive seed "serve-mix" mod fresh_every in
  let base = Common.derive seed "fresh" mod 10_000 in
  Array.init n (fun i ->
      let c = i + rotation in
      if c mod fresh_every = 0 then
        Fresh
          ( c / fresh_every mod Array.length popular_seeds,
            site_rate *. (1. +. (float_of_int (1 + base + i) *. 1e-7)) )
      else Popular popular_cycle.((c mod fresh_every) - 1))

(* [fresh_checked] distinct fresh requests among ids [first, last),
   drawn from the workload seed. *)
let sample_fresh seed kinds ~first ~last =
  let fresh =
    List.filter
      (fun i -> match kinds.(i) with Fresh _ -> true | Popular _ -> false)
      (List.init (last - first) (fun k -> first + k))
  in
  let rng = Prng.Rng.of_int (Common.derive seed "fresh-check") in
  let rec draw pool k acc =
    if k = 0 || pool = [] then List.sort compare acc
    else
      let i = List.nth pool (Prng.Rng.int rng (List.length pool)) in
      draw (List.filter (( <> ) i) pool) (k - 1) (i :: acc)
  in
  draw fresh fresh_checked []

(* ---- The daemon ------------------------------------------------------ *)

type daemon = { pid : int; port : int; out : in_channel }

let running : int list ref = ref []

let reap pid =
  let rec wait n =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when n > 0 ->
      Unix.sleepf 0.05;
      wait (n - 1)
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait 600;
  running := List.filter (( <> ) pid) !running

(* A benchmark that dies must not leave a daemon behind. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !running)

let launch (ctx : Common.ctx) =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process ctx.dstool
      [| ctx.dstool; "serve"; "--port"; "0"; "--domains"; string_of_int ctx.width |]
      null w null
  in
  running := pid :: !running;
  Unix.close w;
  Unix.close null;
  let out = Unix.in_channel_of_descr r in
  let port =
    match Unix.select [ r ] [] [] 60. with
    | [], _, _ -> None
    | _ ->
      (match input_line out with
       | line -> Scanf.sscanf_opt line "dstool server listening on %_s@:%d" Fun.id
       | exception End_of_file -> None)
  in
  match port with
  | Some port -> { pid; port; out }
  | None ->
    reap pid;
    failwith "dstool serve did not report a listening port"

let call port method_ params =
  let c = Server.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () ->
      Server.Client.call c ~method_ params)

let shutdown d =
  (try ignore (call d.port "shutdown" (Json.Obj [])) with _ -> ());
  reap d.pid;
  close_in_noerr d.out

let metrics d =
  match call d.port "metrics" (Json.Obj []) with
  | Ok json -> Layers.of_json json
  | Error msg -> failwith ("metrics: " ^ msg)

let design_of = function
  | Ok result -> Option.bind (Json.member "design" result) Json.str_opt
  | Error _ -> None

(* ---- The generator's connection -------------------------------------- *)

type conn = {
  oc : out_channel;
  lock : Mutex.t;
  replies : (int, float * (Json.t, string) result) Hashtbl.t;
  mutable eof : bool;
}

let reader conn ic =
  let rec loop () =
    match input_line ic with
    | line ->
      let at = Common.now () in
      (match Protocol.parse_incoming line with
       | Ok (Protocol.Reply { id; result }) ->
         let result =
           Result.map_error (Format.asprintf "%a" Protocol.pp_rpc_error) result
         in
         Option.iter
           (fun id ->
              Mutex.protect conn.lock (fun () ->
                  Hashtbl.replace conn.replies id (at, result)))
           (Json.int_opt id)
       | Ok (Protocol.Note _) | Error _ -> ());
      loop ()
    | exception (End_of_file | Sys_error _) ->
      Mutex.protect conn.lock (fun () -> conn.eof <- true)
  in
  loop ()

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let conn =
    { oc = Unix.out_channel_of_descr fd;
      lock = Mutex.create ();
      replies = Hashtbl.create 256;
      eof = false }
  in
  let thread = Thread.create (reader conn) (Unix.in_channel_of_descr fd) in
  (conn, fd, thread)

let send conn id params =
  output_string conn.oc
    (Protocol.request ~id:(Json.Num (float_of_int id)) ~method_:"solve" ~params);
  output_char conn.oc '\n';
  flush conn.oc

(* Block until [n] replies have arrived, the connection closed, or
   [deadline] passed (polling: the reader stamps arrival times itself,
   so the poll interval only delays the next closed-loop send). *)
let rec await conn n ~deadline =
  let pending =
    Mutex.protect conn.lock (fun () -> Hashtbl.length conn.replies < n && not conn.eof)
  in
  if pending && Common.now () < deadline then begin
    Thread.delay 0.002;
    await conn n ~deadline
  end

(* ---- The run ------------------------------------------------------------ *)

let run (ctx : Common.ctx) =
  let t_expect = Common.now () in
  let expected = Array.init (Array.length popular_seeds) (fun k -> in_process (Popular k)) in
  let expect_s = Common.now () -. t_expect in
  (* Set-up: start the daemon and warm its memo with the popular set. *)
  let setup () =
    let d = launch ctx in
    let warm =
      Array.init (Array.length popular_seeds) (fun k ->
           let reply = call d.port "solve" (params_of (Popular k)) in
           ( design_of reply,
             match reply with
             | Ok r -> Option.value ~default:0. (Option.bind (Json.member "cost_dollars" r) Json.num_opt)
             | Error _ -> 0. ))
    in
    (d, warm)
  in
  let (d, warm), setup_s, agree =
    Common.repeat_setup
      ~teardown:(fun (d, _) -> shutdown d)
      ~fingerprint:(fun (_, warm) ->
          String.concat "\n"
            (Array.to_list (Array.map (fun (w, _) -> Option.value ~default:"" w) warm)))
      setup
  in
  Fun.protect ~finally:(fun () -> shutdown d) @@ fun () ->
  let warm_ok =
    Array.for_all2 (fun e (w, _) -> w = Some e && e <> "") expected warm
  in
  let before = if ctx.trace then metrics d else [] in
  (* Every phase runs whole cycles of [fresh_every] requests, so each
     sees the pattern's exact mix. Request ids index [kinds]: a warm-up,
     the open loop, then the closed loop. *)
  let n_warm = 3 * fresh_every in
  let n_open =
    fresh_every * int_of_float (ctx.seconds *. open_share *. rate /. float_of_int fresh_every)
  in
  let open_end = n_warm + n_open in
  let closed_s = ctx.seconds *. (1. -. open_share) in
  (* The closed loop sends popular requests only (enough for any
     plausible rate): its completion rate is the daemon's service rate
     for memo-served traffic. With the fresh problems in it, that rate
     moved by half between runs. *)
  let kinds =
    Array.append (schedule ctx.seed open_end)
      (Array.init (int_of_float (closed_s *. 200.)) (fun i ->
           Popular popular_cycle.(i mod Array.length popular_cycle)))
  in
  let conn, fd, thread = connect d.port in
  let sent_at = Array.make (Array.length kinds) nan in
  let due_at = Array.make (Array.length kinds) nan in
  (* Send from [first] keeping [window] requests outstanding, stopping at
     the first cycle boundary where [go sent] is false; returns the id
     after the last one sent, once every reply is in. *)
  let closed_loop ~first go =
    let next = ref first in
    while
      !next < Array.length kinds
      && ((!next - first) mod fresh_every <> 0 || go (!next - first))
    do
      await conn (!next - window + 1) ~deadline:(Common.now () +. reply_timeout_s);
      sent_at.(!next) <- Common.now ();
      send conn !next (params_of kinds.(!next));
      incr next
    done;
    await conn !next ~deadline:(Common.now () +. reply_timeout_s);
    !next
  in
  (* Warm-up, outside the statistics: the daemon's heap grows over its
     first fresh solves, which run up to twice as slow. *)
  ignore (closed_loop ~first:0 (fun sent -> sent < n_warm));
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  (* Open loop: request i is due at t0 + i / rate, whatever came back. *)
  let t0 = Common.now () +. 0.01 in
  let late = ref 0. in
  for i = n_warm to open_end - 1 do
    let due = t0 +. (float_of_int (i - n_warm) /. rate) in
    let wait = due -. Common.now () in
    if wait > 0. then Thread.delay wait;
    due_at.(i) <- due;
    sent_at.(i) <- Common.now ();
    late := Float.max !late (sent_at.(i) -. due);
    send conn i (params_of kinds.(i))
  done;
  await conn open_end ~deadline:(Common.now () +. reply_timeout_s);
  (* Closed loop: cycle after cycle while the mean cycle so far would
     still end within [closed_s]. *)
  let b_start = Common.now () in
  let n =
    closed_loop ~first:open_end (fun sent ->
        let cycles = sent / fresh_every in
        cycles = 0
        || Common.now () +. ((Common.now () -. b_start) /. float_of_int cycles)
           <= b_start +. closed_s)
  in
  let closed_elapsed =
    Mutex.protect conn.lock (fun () ->
        Hashtbl.fold
          (fun id (at, _) acc -> if id >= open_end then Float.max acc (at -. b_start) else acc)
          conn.replies 0.)
  in
  let closed_done = n - open_end in
  let words = (Gc.quick_stat ()).Gc.minor_words -. w0 in
  Unix.shutdown fd Unix.SHUTDOWN_ALL;
  Thread.join thread;
  let after = if ctx.trace then metrics d else [] in
  let daemon_rss = Common.peak_rss_mb ~pid:(string_of_int d.pid) () in
  (* Judge every request: correct bytes (popular: the in-process design;
     a seeded sample of [fresh_checked] fresh open-loop requests:
     re-solved in process now; the other fresh ones: a well-formed
     design), and in the open loop within [limit_s] of its due time. *)
  let checked = sample_fresh ctx.seed kinds ~first:n_warm ~last:open_end in
  let correct i reply =
    match kinds.(i), design_of reply with
    | _, None -> false
    | Popular k, Some bytes -> bytes = expected.(k)
    | (Fresh _ as kind), Some bytes ->
      if List.mem i checked then bytes = in_process kind else String.length bytes > 0
  in
  let lat_due = ref [] and lat_sent = ref [] and ok = ref 0 in
  let missing = ref 0 and wrong = ref 0 and late_replies = ref 0 in
  for i = 0 to n - 1 do
    match Hashtbl.find_opt conn.replies i with
    | None -> incr missing
    | Some (at, reply) ->
      lat_sent := (at -. sent_at.(i)) :: !lat_sent;
      (* The latency limit applies at the fixed rate; the warm-up and
         the closed loop queue by design, so there only correctness
         counts. *)
      let in_open = i >= n_warm && i < open_end in
      let late = in_open && at -. due_at.(i) > limit_s in
      if in_open then lat_due := (at -. due_at.(i)) :: !lat_due;
      if not (correct i reply) then incr wrong
      else if late then incr late_replies
      else incr ok
  done;
  let failed = n - !ok in
  let latency, latency_line =
    Common.latency_metrics ~what:(Printf.sprintf "open loop at %.0f req/s, from due time" rate)
      !lat_due
  in
  let throughput = Common.ratio (float_of_int closed_done) closed_elapsed in
  let layers =
    if not ctx.trace then []
    else
      let insts = Layers.diff ~before after in
      let p name q =
        match List.assoc_opt name after with
        | Some (Layers.Hist h) -> 1000. *. (if q = 50 then h.p50 else h.p90)
        | _ -> 0.
      in
      let count name =
        match List.assoc_opt name insts with Some (Layers.Num v) -> v | _ -> 0.
      in
      Layers.derive ~ops:n insts
      @ [ ("server.queue_wait_p50_ms", p "server.queue_wait_s" 50);
          ("server.queue_wait_p90_ms", p "server.queue_wait_s" 90);
          ("server.solve_p50_ms", p "server.solve_s" 50);
          ( "serve.outside_server_p50_ms",
            (1000. *. Common.median !lat_sent) -. p "server.request_s" 50 );
          ("server.overloaded", count "server.overloaded");
          ("server.errors", count "server.errors");
          ("server.requests", count "server.requests");
          ("gen.late_max_ms", 1000. *. !late);
          ("gc.minor_words_per_op", Common.ratio words (float_of_int n));
          ("trace.overhead_frac", 0.);
          ("domains", float_of_int ctx.width) ]
  in
  { Common.attempted = n;
    failed;
    late = !late_replies;
    checks_ok = agree && warm_ok;
    e2e =
      [ ("setup_s", setup_s);
        ("peak_rss_mb", Common.peak_rss_mb () +. daemon_rss);
        ("ok_frac", Common.ratio (float_of_int !ok) (float_of_int n));
        ("throughput_per_s", throughput);
        (* Summed annual cost the daemon reported for the popular set. *)
        ("answer_cost_usd", Array.fold_left (fun acc (_, c) -> acc +. c) 0. warm) ]
      @ latency;
    layers;
    info =
      [ Printf.sprintf "serve-mix: dstool serve --domains %d (pid %d); popular set of 4 \
                        seeds, 1 in %d fresh; expected designs \
                        solved in process in %.2f s"
          ctx.width d.pid fresh_every expect_s;
        Printf.sprintf "open loop: %d requests at %.0f req/s, generator late by at most \
                        %.2f ms; limit %.0f ms"
          n_open rate (1000. *. !late) (1000. *. limit_s);
        Printf.sprintf "closed loop: %d outstanding, %d replies in %.2f s (%.2f req/s)"
          window closed_done closed_elapsed throughput;
        latency_line;
        Printf.sprintf "ok: %d of %d requests correct within the limit (%d wrong or \
                        refused, %d late, %d unanswered); fresh replies re-solved in \
                        process: ids %s"
          !ok n !wrong !late_replies !missing
          (String.concat ", " (List.map string_of_int checked)) ] }
