(* serve: a warm daemon (Server.run with a resident pool of one worker)
   fed by one client in a closed loop: the next job is sent only after
   the previous reply arrived and was checked. One client and one pool
   worker, so no more processes compete than a 2-core host has cores.

   Jobs are register-allocation instances: interval-conflict graphs of
   seeded live ranges, whose chromatic number is the peak overlap. Every
   job names the single strategy pbs2 (PBS II with SC and instance-
   dependent SBPs), so no race decides which engine answers; the dsatur
   strategy is left out because Exact_dsatur runs out of nodes on some
   seeded interval graphs (see CHANGES.md). A round is, in order: fresh
   small jobs, resubmissions of earlier jobs of the round under fresh job
   ids (the result cache answers them), and three submissions of one big
   job that needs real search and the parent's proof replay, so the tail
   measures that job rather than scheduler hiccups. *)

module Frame = Colib_portfolio.Frame
module Server = Colib_server.Server
module Client = Colib_server.Client

let small_fresh = 8
let resubmits = 4
let bigs = 3
let deadline = 30.0

(* The big job is a fifth of the stream and slower than nearly every
   other job, so p90 falls at the middle of its submissions: the tail is
   the median latency of one fixed job, which host noise moves less than
   an upper percentile. A run of seven rounds or more (105 jobs) has at
   least ten samples beyond it; see README.md. *)
let tail_q = 0.90

type job = {
  jid : string;
  text : string;
  chi : int;  (** peak overlap, computed by the benchmark *)
  n : int;
  edges : (int * int) list;
  jseed : int;
  resubmit : bool;
}

(* [n] live ranges on a timeline of [span] steps, each [lo .. hi] long,
   drawn again until their peak overlap is at most [peak]: PBS II's
   refutation of chi - 1 colors grows steeply with chi (a 16-interval
   peak ran past 30 s), and no job may reach its deadline *)
let rec live_ranges rng ~n ~span ~lo ~hi ~peak =
  let iv =
    List.init n (fun _ ->
        let s = Random.State.int rng span in
        (s, s + lo + Random.State.int rng (hi - lo + 1)))
  in
  if Checks.peak_overlap iv <= peak then iv
  else live_ranges rng ~n ~span ~lo ~hi ~peak

let make_job ~jid ~jseed intervals =
  let n, edges = Checks.interval_edges intervals in
  { jid; text = Checks.dimacs_of_edges n edges; chi = Checks.peak_overlap intervals;
    n; edges; jseed; resubmit = false }

(* The big job: one fixed instance, the same for every seed, sent [bigs]
   times a round, each time with a fresh job seed. The seed only keys the
   result cache, so it is solved again, with the same search every time. *)
let big_ranges =
  lazy
    (live_ranges
       (Random.State.make [| 0x5eed; 1 |])
       ~n:80 ~span:320 ~lo:4 ~hi:20 ~peak:8)

(* one round's jobs, from the run seed and the round index *)
let round_jobs ~seed round =
  let rng = Random.State.make [| seed; round; 7 |] in
  let id k = Printf.sprintf "s%d-r%d-%s" seed round k in
  let fresh =
    List.init small_fresh (fun i ->
        make_job ~jid:(id (string_of_int i)) ~jseed:0
          (live_ranges rng ~n:(30 + Random.State.int rng 21) ~span:100 ~lo:3
             ~hi:12 ~peak:7))
  in
  let again =
    List.init resubmits (fun i ->
        let j = List.nth fresh (Random.State.int rng small_fresh) in
        { j with jid = id (Printf.sprintf "again%d" i); resubmit = true })
  in
  let big =
    List.init bigs (fun i ->
        make_job ~jid:(id (Printf.sprintf "big%d" i))
          ~jseed:((round * bigs) + i + 1)
          (Lazy.force big_ranges))
  in
  fresh @ again @ big

(* a job that reached its deadline: "timeout", or "best" after spending
   the whole budget; any other reply that is not optimal is wrong *)
let reached_deadline res =
  (res.Frame.r_outcome = "timeout" || res.Frame.r_outcome = "best")
  && res.Frame.r_time >= 0.9 *. deadline

let frame_job j =
  {
    Frame.job_id = j.jid;
    dimacs = j.text;
    j_k = None;
    deadline;
    strategies = "pbs2";
    sbp = "sc";
    instance_dependent = true;
    j_seed = j.jseed;
  }

(* ---------- the daemon ---------- *)

type daemon = {
  pid : int;
  socket : string;
  journal : string;
  mutable stopped : bool;
}

let start_daemon dir =
  let socket = Filename.concat dir "d.sock" in
  let journal = Filename.concat dir "journal.jsonl" in
  let cfg =
    Server.config ~max_queue:16 ~max_running:1 ~pool_size:1 ~cache:true
      ~rotate_bytes:(1 lsl 30) ~socket ~journal_path:journal
      ~ckpt_dir:(Filename.concat dir "ckpt") ()
  in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    let log =
      Unix.openfile (Filename.concat dir "daemon.log")
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    Unix.dup2 log Unix.stdout;
    Unix.dup2 log Unix.stderr;
    Unix.close log;
    Unix._exit (try Server.run cfg with _ -> 2)
  | pid -> { pid; socket; journal; stopped = false }

(* SIGTERM drains the daemon and its pool; SIGKILL after 20 s *)
let stop_daemon d =
  if not d.stopped then begin
  d.stopped <- true;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Util.now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Util.now () < deadline ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid : int * Unix.process_status)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()
  end

(* ready: answering frames, with its pool worker idle and warm *)
let wait_warm d =
  let deadline = Util.now () +. 30.0 in
  let rec go () =
    if Util.now () > deadline then failwith "daemon never became warm"
    else
      match Client.health ~timeout:1.0 ~socket:d.socket () with
      | Ok h when h.Frame.h_pool_warm >= 1 -> ()
      | _ ->
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

let health d =
  match Client.health ~timeout:5.0 ~socket:d.socket () with
  | Ok h -> h
  | Error e -> failwith ("health: " ^ Client.failure_to_string e)

let run (ctx : Util.ctx) =
  let dir = ctx.Util.work_dir in
  let d = start_daemon dir in
  at_exit (fun () -> stop_daemon d);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  wait_warm d;
  let setup_s = Util.now () -. ctx.Util.t_start in
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let lat_ms = ref [] in
  let rounds_wall = ref [] and rounds_solve = ref [] in
  let base = ref [] and traced = ref [] and layer_rounds = ref [] in
  let submitted = ref 0 and resubmitted = ref 0 in
  let h0 = health d in
  let last = ref h0 in
  let journal_size () = try Util.file_size d.journal with Unix.Unix_error _ -> 0 in
  (* peak resident set of the daemon plus its pool worker, sampled after
     every round: a recycled worker takes its peak with it *)
  let rss = ref 0.0 in
  let sample_rss () =
    let mb pid = Util.peak_rss_mb_of (string_of_int pid) in
    rss :=
      Float.max !rss
        (mb d.pid +. Util.sum (List.map mb (Util.children_of d.pid)))
  in
  let nrounds =
    Util.rounds ~min:(if ctx.Util.traced then 2 else 1) ctx (fun round ->
        let jobs = round_jobs ~seed:ctx.Util.seed round in
        let tracing = ctx.Util.traced && round mod 2 = 1 in
        Trace.enabled := tracing;
        let first_span = !Trace.next_id in
        let wall = ref 0.0 and solve = ref 0.0 in
        let r_solve = ref [] and r_over = ref [] in
        List.iter
          (fun j ->
            let r, dt =
              Util.time (fun () ->
                  Trace.op "serve.job" j.jid (fun () ->
                      Trace.span "server.submit" (fun () ->
                          Client.submit ~socket:d.socket (frame_job j))))
            in
            let ms = dt *. 1000.0 in
            wall := !wall +. dt;
            incr attempted;
            incr submitted;
            if j.resubmit then incr resubmitted;
            lat_ms := ms :: !lat_ms;
            (* a stall, not a slow solve: name it beside the result *)
            (match r with
            | Ok res when ms > 5000.0 && res.Frame.r_time < 1.0 ->
              Printf.eprintf
                "perfbench: %s answered after %.0f ms (solve %.0f ms, %s)\n%!"
                j.jid ms (res.Frame.r_time *. 1000.0) res.Frame.r_detail
            | _ -> ());
            match r with
            | Error g ->
              err "%s: no verdict (%s)" j.jid
                (Client.failure_to_string g.Client.last)
            | Ok res -> (
              let reply =
                {
                  Checks.outcome = res.Frame.r_outcome;
                  colors = res.Frame.r_colors;
                  col = res.Frame.r_coloring;
                  certified = res.Frame.r_certified;
                }
              in
              if reached_deadline res then incr failed
              else
                match Checks.job_reply ~n:j.n ~edges:j.edges ~chi:j.chi reply with
                | Error e -> err "%s: %s" j.jid e
                | Ok () ->
                  if not j.resubmit then begin
                    let s = res.Frame.r_time *. 1000.0 in
                    solve := !solve +. res.Frame.r_time;
                    r_solve := s :: !r_solve;
                    r_over := (ms -. s) :: !r_over
                  end))
          jobs;
        Trace.enabled := false;
        sample_rss ();
        let h = health d in
        let p = !last in
        last := h;
        let fresh = List.length (List.filter (fun j -> not j.resubmit) jobs) in
        let again = List.length jobs - fresh in
        (match
           Checks.cache_accounting ~submitted:(List.length jobs) ~resubmitted:again
             ~hits:(h.Frame.h_cache_hits - p.Frame.h_cache_hits)
             ~misses:(h.Frame.h_cache_misses - p.Frame.h_cache_misses)
             ~coalesced:(h.Frame.h_coalesced - p.Frame.h_coalesced)
         with
        | Ok () -> ()
        | Error e -> err "round %d: %s" round e);
        if tracing then begin
          traced := !wall :: !traced;
          layer_rounds :=
            ( Trace.self_times ~from:first_span (),
              [
                ("server.solve_ms", Util.median !r_solve);
                ("server.overhead_ms", Util.median !r_over);
              ] )
            :: !layer_rounds
        end
        else begin
          base := !wall :: !base;
          rounds_wall := !wall :: !rounds_wall;
          rounds_solve := !solve :: !rounds_solve
        end)
  in
  let hend = !last in
  (match
     Checks.cache_accounting ~submitted:!submitted ~resubmitted:!resubmitted
       ~hits:(hend.Frame.h_cache_hits - h0.Frame.h_cache_hits)
       ~misses:(hend.Frame.h_cache_misses - h0.Frame.h_cache_misses)
       ~coalesced:(hend.Frame.h_coalesced - h0.Frame.h_coalesced)
   with
  | Ok () -> ()
  | Error e -> err "run: %s" e);
  (* the daemon's counters over the whole run: restarts and recycles are
     too rare for a per-round median *)
  let count name f = Util.m name "count" (float_of_int (f hend - f h0)) in
  let totals =
    [
      count "server.cache_hits" (fun h -> h.Frame.h_cache_hits);
      count "server.cache_misses" (fun h -> h.Frame.h_cache_misses);
      count "server.coalesced" (fun h -> h.Frame.h_coalesced);
      count "server.pool_restarts" (fun h -> h.Frame.h_pool_restarts);
      count "server.pool_recycles" (fun h -> h.Frame.h_pool_recycles);
      Util.m "server.journal_bytes" "bytes"
        (float_of_int (journal_size ()) /. float_of_int !submitted);
      Util.m "server.jobs" "count" (float_of_int !submitted);
    ]
  in
  stop_daemon d;
  let metrics =
    if ctx.Util.traced then
      Layers.report ~rounds:!layer_rounds ~base:!base ~traced:!traced
        ~op_span:"serve.job"
      @ totals
    else
      Layers.measured ~setup_s ~wall_s:(Util.median !rounds_wall)
        ~solve_s:(Util.median !rounds_solve) ~peak_rss_mb:!rss
        ~op_p50_ms:(Util.percentile !lat_ms 0.5)
        ~op_tail_ms:(Util.percentile !lat_ms tail_q)
  in
  let n = List.length !lat_ms in
  {
    Util.attempted = !attempted;
    failed = !failed;
    errors = List.rev !errors;
    metrics;
    context =
      [
        ("rounds", string_of_int nrounds);
        ("round_wall_s", Util.json_floats (List.rev !rounds_wall));
        ("op_samples", string_of_int n);
        ("tail", Util.json_string (Printf.sprintf "p%g" (tail_q *. 100.0)));
        ("tail_beyond", string_of_int (n - int_of_float (ceil (tail_q *. float_of_int n))));
      ];
  }
