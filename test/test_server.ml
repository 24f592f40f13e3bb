(* Crash-only coloring service tests: the wire format rejects version and
   direction confusion; journal rotation bounds the file without losing
   resumable state; SIGPIPE-safe writes survive half-closed peers; and the
   daemon under network chaos — disconnects, slow-loris writers, garbage,
   overload, kill -9 mid-job — always ends every accepted job in a
   certified result or a typed journaled failure, idempotently
   re-deliverable by job id. *)

module Generators = Colib_graph.Generators
module Dimacs_col = Colib_graph.Dimacs_col
module Certify = Colib_check.Certify
module Chaos = Colib_check.Chaos
module Frame = Colib_portfolio.Frame
module Journal = Colib_portfolio.Journal
module P = Colib_portfolio.Portfolio
module Server = Colib_server.Server
module Client = Colib_server.Client
module Balancer = Colib_server.Balancer
module Supervise = Colib_server.Supervise
module Durable = Colib_io.Durable
module Mclock = Colib_clock.Mclock

let check = Alcotest.check

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let myciel3_text = Dimacs_col.to_string (Generators.mycielski 3)

let job ?(id = "job-1") ?(deadline = 30.0) ?(k = None) () =
  {
    Frame.job_id = id;
    dimacs = myciel3_text;
    j_k = k;
    deadline;
    strategies = "dsatur";
    sbp = "";
    instance_dependent = false;
    j_seed = 0;
  }

(* ---------- wire format ---------- *)

let test_wire_roundtrip () =
  let j = job () in
  (match Frame.decode_request (Frame.encode_request (Frame.Submit j)) with
  | Ok (Frame.Submit j') ->
    check Alcotest.string "job id" j.Frame.job_id j'.Frame.job_id;
    check Alcotest.string "dimacs" j.Frame.dimacs j'.Frame.dimacs;
    check (Alcotest.float 0.0) "deadline" j.Frame.deadline j'.Frame.deadline
  | _ -> Alcotest.fail "submit must roundtrip");
  (match Frame.decode_request (Frame.encode_request Frame.Ping) with
  | Ok Frame.Ping -> ()
  | _ -> Alcotest.fail "ping must roundtrip");
  let r =
    {
      Frame.r_job_id = "j";
      r_outcome = "optimal";
      r_colors = Some 4;
      r_coloring = Some [| 0; 1; 2; 3 |];
      r_winner = Some "DSATUR B&B";
      r_certified = true;
      r_detail = "";
      r_time = 0.25;
      r_replayed = false;
    }
  in
  List.iter
    (fun resp ->
      match Frame.decode_response (Frame.encode_response resp) with
      | Ok resp' ->
        check Alcotest.bool "response roundtrips" true (resp = resp')
      | Error e -> Alcotest.fail (Frame.error_to_string e))
    [
      Frame.Accepted "j";
      Frame.Overloaded { queued = 3; capacity = 3 };
      Frame.Rejected { rj_job_id = "j"; reason = "nope" };
      Frame.Result r;
      Frame.Pong;
    ]

let test_wire_rejects_confusion () =
  (* a response payload fed to the request decoder: typed direction error,
     not an unmarshal crash *)
  (match Frame.decode_request (Frame.encode_response Frame.Pong) with
  | Error (Frame.Bad_payload m) ->
    check Alcotest.bool "direction named" true
      (contains_substring m "direction")
  | _ -> Alcotest.fail "wrong direction must be typed");
  (* a future protocol generation: typed version error *)
  let payload = Frame.encode_request Frame.Ping in
  let forged = Bytes.of_string payload in
  Bytes.set forged 3 '9';
  (match Frame.decode_request (Bytes.to_string forged) with
  | Error (Frame.Bad_version _) -> ()
  | _ -> Alcotest.fail "future version must be typed");
  (* bytes that are not a tagged message at all *)
  (match Frame.decode_request "xy" with
  | Error (Frame.Bad_payload _) -> ()
  | _ -> Alcotest.fail "short payload must be typed");
  match Frame.decode_response "CRS1this is not marshal data" with
  | Error (Frame.Bad_payload _) -> ()
  | _ -> Alcotest.fail "unmarshalable payload must be typed"

(* ---------- journal rotation ---------- *)

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "colib_srv_%s_%d" name (Unix.getpid ()))

let test_journal_rotation () =
  let path = tmp_path "rotate.jsonl" in
  let j = Journal.create ~rotate_bytes:2048 path in
  (* a daemon-shaped workload: few keys, many superseding transitions *)
  let blob = String.make 100 'x' in
  for round = 1 to 50 do
    List.iter
      (fun key ->
        Journal.append j
          [
            ("key", key);
            ("state", if round mod 2 = 0 then "running" else "accepted");
            ("round", string_of_int round);
            ("dimacs", blob);
          ])
      [ "a"; "b"; "c" ]
  done;
  let size = (Unix.stat path).Unix.st_size in
  check Alcotest.bool "file stays near the limit"
    true (size < 4096);
  check Alcotest.bool "rotated at least once" true (Journal.rotations j > 0);
  check Alcotest.bool "backup preserved" true (Sys.file_exists (path ^ ".1"));
  (* the compacted journal still resumes correctly: latest state per key *)
  let j' = Journal.load path in
  List.iter
    (fun key ->
      match Journal.find j' key with
      | Some r ->
        check (Alcotest.option Alcotest.string) (key ^ " latest round")
          (Some "50")
          (List.assoc_opt "round" r);
        check (Alcotest.option Alcotest.string) (key ^ " latest state")
          (Some "running")
          (List.assoc_opt "state" r)
      | None -> Alcotest.fail (key ^ " lost in rotation"))
    [ "a"; "b"; "c" ];
  check Alcotest.bool "rotation count recovered on load" true
    (Journal.rotations j' > 0);
  Sys.remove path;
  Sys.remove (path ^ ".1")

let test_journal_rotation_preserves_unkeyed () =
  let path = tmp_path "rotate_unkeyed.jsonl" in
  let j = Journal.create ~rotate_bytes:512 path in
  Journal.append j [ ("event", "boot"); ("note", String.make 80 'n') ];
  for i = 1 to 30 do
    Journal.append j
      [ ("key", "k"); ("state", "s" ^ string_of_int i);
        ("pad", String.make 60 'p') ]
  done;
  let j' = Journal.load path in
  check Alcotest.bool "unkeyed record survives compaction" true
    (List.exists
       (fun r -> List.assoc_opt "event" r = Some "boot")
       (Journal.records j'));
  Sys.remove path;
  (try Sys.remove (path ^ ".1") with Sys_error _ -> ())

let test_journal_rotation_retain () =
  (* the session streams forced a per-key retention policy onto rotation:
     `All keeps a key's full history (session edit logs), `Drop garbage-
     collects dead streams, `Latest keeps the usual newest-record-per-key.
     Mix all three with unkeyed records and prove each class's fate. *)
  let path = tmp_path "rotate_retain.jsonl" in
  let retain key =
    if String.length key >= 6 && String.sub key 0 6 = "__live" then `All
    else if String.length key >= 6 && String.sub key 0 6 = "__dead" then `Drop
    else `Latest
  in
  let j = Journal.create ~rotate_bytes:1024 ~retain path in
  Journal.append j [ ("event", "boot") ];
  (* a live session stream: a control record that is superseded once, and
     per-seq edit records — including a duplicate-keyed pair that `Latest
     would collapse but `All must keep whole *)
  Journal.append j [ ("key", "__live"); ("state", "open"); ("lease", "60") ];
  for seq = 1 to 5 do
    Journal.append j
      [ ("key", Printf.sprintf "__live#%d" seq); ("op", "v") ]
  done;
  Journal.append j [ ("key", "__live#1"); ("op", "v"); ("dup", "yes") ];
  (* a dead session stream: rotation garbage-collects every record *)
  Journal.append j [ ("key", "__dead"); ("state", "expired") ];
  for seq = 1 to 5 do
    Journal.append j
      [ ("key", Printf.sprintf "__dead#%d" seq); ("op", "v") ]
  done;
  (* job-shaped churn under `Latest drives the file over the threshold *)
  for round = 1 to 30 do
    Journal.append j
      [
        ("key", "job-1");
        ("state", if round = 30 then "done" else "running");
        ("pad", String.make 60 'p');
      ]
  done;
  check Alcotest.bool "rotated at least once" true (Journal.rotations j > 0);
  let j' = Journal.load ~retain path in
  let records = Journal.records j' in
  let with_key k =
    List.filter (fun r -> List.assoc_opt "key" r = Some k) records
  in
  (* `All: the duplicate-keyed pair survives in full *)
  check Alcotest.int "live dup-keyed history kept whole" 2
    (List.length (with_key "__live#1"));
  for seq = 2 to 5 do
    check Alcotest.int
      (Printf.sprintf "live edit %d kept" seq)
      1
      (List.length (with_key (Printf.sprintf "__live#%d" seq)))
  done;
  check Alcotest.bool "live control kept" true (Journal.mem j' "__live");
  (* `Drop: the dead stream is gone entirely *)
  check Alcotest.bool "dead control dropped" false (Journal.mem j' "__dead");
  for seq = 1 to 5 do
    check Alcotest.bool
      (Printf.sprintf "dead edit %d dropped" seq)
      false
      (Journal.mem j' (Printf.sprintf "__dead#%d" seq))
  done;
  (* `Latest: one record, the newest *)
  (match Journal.find j' "job-1" with
  | Some r ->
    check (Alcotest.option Alcotest.string) "job compacted to latest"
      (Some "done")
      (List.assoc_opt "state" r)
  | None -> Alcotest.fail "job lost in rotation");
  check Alcotest.int "job history collapsed" 1 (List.length (with_key "job-1"));
  (* unkeyed records still survive *)
  check Alcotest.bool "unkeyed record survives" true
    (List.exists (fun r -> List.assoc_opt "event" r = Some "boot") records);
  Sys.remove path;
  (try Sys.remove (path ^ ".1") with Sys_error _ -> ())

(* ---------- SIGPIPE-safe writes (satellite regression) ---------- *)

let test_half_closed_pipe_write () =
  Frame.ignore_sigpipe ();
  let r, w = Unix.pipe () in
  Unix.close r;
  (* the peer is gone: the write must come back as a typed Closed, and this
     process must still be alive to observe it (SIGPIPE ignored) *)
  (match Frame.write_frame w (String.make 100_000 'z') with
  | Error Frame.Closed -> ()
  | Ok () -> Alcotest.fail "write into a half-closed pipe cannot succeed"
  | Error e -> Alcotest.fail ("expected Closed, got " ^ Frame.io_error_to_string e));
  Unix.close w;
  (* same through a socketpair, after the reader half-closes mid-stream *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close b;
  (match Frame.write_frame a (String.make 1_000_000 'q') with
  | Error Frame.Closed -> ()
  | Ok () -> Alcotest.fail "write to a closed socket peer cannot succeed"
  | Error e -> Alcotest.fail ("expected Closed, got " ^ Frame.io_error_to_string e));
  Unix.close a

let test_write_frame_slow_reader_deadline () =
  (* a reader that never drains: the writer must abandon at its deadline
     with Io_timeout instead of wedging forever *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let big = String.make 8_000_000 'w' in
  let t0 = Mclock.now () in
  (match Frame.write_frame ~deadline:(t0 +. 0.5) a big with
  | Error Frame.Io_timeout -> ()
  | Ok () -> Alcotest.fail "an undrained 8MB write cannot complete"
  | Error e -> Alcotest.fail ("expected Io_timeout, got " ^ Frame.io_error_to_string e));
  check Alcotest.bool "returned promptly" true (Mclock.now () -. t0 < 5.0);
  Unix.close a;
  Unix.close b

(* ---------- daemon harness ---------- *)

let test_dir = tmp_path "daemon"

let fresh_paths name =
  let dir = Filename.concat test_dir name in
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
        Unix.rmdir p
      end
      else Sys.remove p
  in
  rm dir;
  let rec mk p =
    if not (Sys.file_exists p) then begin
      mk (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mk dir;
  ( Filename.concat dir "sock",
    Filename.concat dir "journal.jsonl",
    Filename.concat dir "ckpt" )

let daemon_cfg ?(max_queue = 16) ?(max_running = 2) ?(io_timeout = 2.0)
    ?(hold = 0.0) ?pool_size ?recycle_jobs ?cache ?pool_faults ?max_sessions
    ?session_lease ?session_snap_edits (socket, journal_path, ckpt_dir) =
  Server.config ~max_queue ~max_running ~io_timeout ~drain_grace:5.0
    ~default_strategies:[ P.Dsatur_strategy ] ~hold ?pool_size ?recycle_jobs
    ?cache ?pool_faults ?max_sessions ?session_lease ?session_snap_edits
    ~socket ~journal_path ~ckpt_dir ()

let start_daemon ?(pre = fun () -> ()) cfg =
  match Unix.fork () with
  | 0 -> (
    (* [pre] runs in the daemon child before serving: tests use it to
       install an ambient fault plan or lower the child's fd limit *)
    try
      pre ();
      Unix._exit (Server.run cfg)
    with _ -> Unix._exit 9)
  | pid ->
    (* wait until it answers a ping *)
    let deadline = Mclock.now () +. 10.0 in
    let rec ready () =
      if Mclock.now () > deadline then
        Alcotest.fail "daemon did not come up"
      else
        match Client.ping ~timeout:0.5 ~socket:cfg.Server.socket () with
        | Ok () -> ()
        | Error _ -> Unix.sleepf 0.05; ready ()
    in
    ready ();
    pid

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Mclock.now () +. 15.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Mclock.now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.05;
        reap ()
      end
    | _, st -> (
      match st with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c ->
        Alcotest.fail (Printf.sprintf "daemon exited %d on drain" c)
      | _ -> Alcotest.fail "daemon did not drain cleanly")
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ()

let no_sleep (_ : float) = ()

let submit_ok ?chaos ?(retries = 4) ?sleep ~socket j =
  match Client.submit ?chaos ~retries ?sleep ~socket j with
  | Ok r -> r
  | Error { attempts; last } ->
    Alcotest.fail
      (Printf.sprintf "submit gave up after %d attempts: %s" attempts
         (Client.failure_to_string last))

(* ---------- end-to-end: solve, certify, idempotent re-delivery ---------- *)

let test_daemon_end_to_end () =
  let paths = fresh_paths "e2e" in
  let socket, journal_path, _ = paths in
  let pid = start_daemon (daemon_cfg paths) in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let r = submit_ok ~socket (job ~id:"e2e-1" ()) in
  check Alcotest.string "optimal" "optimal" r.Frame.r_outcome;
  check (Alcotest.option Alcotest.int) "chi(myciel3) = 4" (Some 4)
    r.Frame.r_colors;
  check Alcotest.bool "daemon certified it" true r.Frame.r_certified;
  check Alcotest.bool "fresh, not replayed" false r.Frame.r_replayed;
  (* the daemon's word is independently checkable *)
  (match (r.Frame.r_coloring, Dimacs_col.parse_result myciel3_text) with
  | Some col, Ok g ->
    check Alcotest.bool "coloring verifies locally" true
      (Certify.coloring g ~k:4 ~claimed:4 col = Ok ())
  | _ -> Alcotest.fail "coloring must be returned");
  (* resubmit the same job id: re-delivered from the journal, same answer,
     no second solve *)
  let r2 = submit_ok ~socket (job ~id:"e2e-1" ()) in
  check Alcotest.bool "replayed" true r2.Frame.r_replayed;
  check Alcotest.string "same outcome" r.Frame.r_outcome r2.Frame.r_outcome;
  check (Alcotest.option Alcotest.int) "same colors" r.Frame.r_colors
    r2.Frame.r_colors;
  (* and the journal records the terminal state *)
  let j = Journal.load journal_path in
  match Journal.find j "e2e-1" with
  | Some rec_ ->
    check (Alcotest.option Alcotest.string) "journaled done" (Some "done")
      (List.assoc_opt "state" rec_)
  | None -> Alcotest.fail "finished job must be journaled"

let test_daemon_rejects_malformed () =
  let paths = fresh_paths "reject" in
  let socket, _, _ = paths in
  let pid = start_daemon (daemon_cfg paths) in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let bad = { (job ~id:"bad-1" ()) with Frame.dimacs = "p edge oops" } in
  match Client.submit ~retries:1 ~sleep:no_sleep ~socket bad with
  | Error { last = Client.Rejected { reason; _ }; attempts } ->
    check Alcotest.int "no retry on permanent rejection" 1 attempts;
    check Alcotest.bool "reason names the parse" true
      (contains_substring reason "malformed")
  | Error { last; _ } ->
    Alcotest.fail ("expected Rejected, got " ^ Client.failure_to_string last)
  | Ok _ -> Alcotest.fail "malformed instance cannot be accepted"

(* ---------- admission control ---------- *)

let test_daemon_sheds_overload () =
  (* one slot, one queue seat, slow jobs: the third concurrent submit must
     be shed with a typed Overloaded naming the bound *)
  let paths = fresh_paths "overload" in
  let socket, journal_path, _ = paths in
  let pid =
    start_daemon (daemon_cfg ~max_running:1 ~max_queue:1 ~hold:3.0 paths)
  in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  (* submit two jobs raw (no waiting for results): one runs, one queues *)
  let submit_raw id =
    let fd =
      Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
    in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    (match
       Frame.write_frame fd (Frame.encode_request (Frame.Submit (job ~id ())))
     with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Frame.io_error_to_string e));
    let resp =
      match Frame.read_frame ~deadline:(Mclock.now () +. 5.0) fd with
      | Ok payload -> (
        match Frame.decode_response payload with
        | Ok resp -> resp
        | Error e -> Alcotest.fail (Frame.error_to_string e))
      | Error e -> Alcotest.fail (Frame.read_error_to_string e)
    in
    (fd, resp)
  in
  let fd1, r1 = submit_raw "ov-1" in
  let fd2, r2 = submit_raw "ov-2" in
  (match (r1, r2) with
  | Frame.Accepted _, Frame.Accepted _ -> ()
  | _ -> Alcotest.fail "first two jobs must be accepted");
  (* now the slot is held (hold=3s) and the queue seat taken *)
  let fd3, r3 = submit_raw "ov-3" in
  (match r3 with
  | Frame.Overloaded { queued; capacity } ->
    check Alcotest.int "queue bound named" 1 capacity;
    check Alcotest.bool "queue depth reported" true (queued >= 1)
  | _ -> Alcotest.fail "third concurrent job must be shed");
  List.iter Unix.close [ fd1; fd2; fd3 ];
  (* the shed is journaled as a typed transition, not lost *)
  Unix.sleepf 0.2;
  let j = Journal.load journal_path in
  match Journal.find j "ov-3" with
  | Some rec_ ->
    check (Alcotest.option Alcotest.string) "journaled shed" (Some "shed")
      (List.assoc_opt "state" rec_)
  | None -> Alcotest.fail "shed must be journaled"

let test_daemon_deadline_zero () =
  (* a deadline of 0 is exhausted at admission: typed timeout result,
     delivered immediately, journaled as done *)
  let paths = fresh_paths "deadline0" in
  let socket, _, _ = paths in
  let pid = start_daemon (daemon_cfg paths) in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let t0 = Mclock.now () in
  let r = submit_ok ~socket (job ~id:"dl-0" ~deadline:0.0 ()) in
  check Alcotest.string "typed timeout" "timeout" r.Frame.r_outcome;
  check Alcotest.bool "immediate" true (Mclock.now () -. t0 < 5.0);
  check Alcotest.bool "reason recorded" true
    (contains_substring r.Frame.r_detail "deadline")

(* ---------- network chaos ---------- *)

let test_daemon_survives_net_faults () =
  let paths = fresh_paths "chaos" in
  let socket, journal_path, _ = paths in
  let pid = start_daemon (daemon_cfg ~io_timeout:1.0 paths) in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  (* attempts 0-2 are faulty, attempt 3 is clean: the client's own retry
     loop must carry the job through disconnects, garbage, and truncation *)
  let plan =
    Chaos.net_scripted
      [
        (0, Chaos.Disconnect_mid_frame);
        (1, Chaos.Net_garbage);
        (2, Chaos.Net_truncated_frame);
      ]
  in
  let r =
    submit_ok ~chaos:plan ~retries:4 ~sleep:no_sleep ~socket
      (job ~id:"chaos-1" ())
  in
  check Alcotest.string "answer despite chaos" "optimal" r.Frame.r_outcome;
  check Alcotest.bool "certified" true r.Frame.r_certified;
  (* the aborted attempts created no phantom jobs (daemon metadata records
     carry "__"-prefixed keys and are not jobs) *)
  let j = Journal.load journal_path in
  let keys =
    List.sort_uniq compare
      (List.filter_map (fun r -> List.assoc_opt "key" r) (Journal.records j))
    |> List.filter (fun k -> not (String.length k >= 2 && String.sub k 0 2 = "__"))
  in
  check
    (Alcotest.list Alcotest.string)
    "only the real job journaled" [ "chaos-1" ] keys

let test_daemon_sheds_slow_loris () =
  let paths = fresh_paths "loris" in
  let socket, _, _ = paths in
  let pid = start_daemon (daemon_cfg ~io_timeout:0.5 paths) in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  (* a writer that trickles one byte every 0.2s into a 0.5s-idle daemon:
     it must be shed, and the daemon must stay fully serviceable *)
  let t0 = Mclock.now () in
  (match
     Client.submit ~retries:0 ~sleep:no_sleep
       ~chaos:(Chaos.net_scripted [ (0, Chaos.Slow_loris 0.2) ])
       ~socket (job ~id:"loris-1" ())
   with
  | Ok _ -> Alcotest.fail "a slow-loris attempt cannot produce a result"
  | Error { last; _ } ->
    check Alcotest.bool "typed transient failure" true (Client.transient last));
  check Alcotest.bool "shed long before the frame completes" true
    (Mclock.now () -. t0 < 30.0);
  (* daemon still answers *)
  let r = submit_ok ~socket (job ~id:"loris-2" ()) in
  check Alcotest.string "clean submit after loris" "optimal"
    r.Frame.r_outcome

(* ---------- crash recovery: kill -9 mid-job ---------- *)

let read_all fd =
  let b = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Buffer.contents b
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let test_daemon_kill9_recovery () =
  (* the acceptance gate: an accepted job survives kill -9 of the daemon
     mid-solve; the restarted daemon replays the journal, warm-resumes the
     job, and the client — retrying through the outage — receives the same
     certified answer an uninterrupted run gives *)
  let paths = fresh_paths "kill9" in
  let socket, journal_path, _ = paths in
  let cfg = daemon_cfg ~hold:2.0 paths in
  let pid1 = start_daemon cfg in
  (* the client lives in its own process so the test can orchestrate the
     kill while the submit is in flight; it reports the result over a pipe *)
  let pr, pw = Unix.pipe () in
  let cpid =
    match Unix.fork () with
    | 0 ->
      Unix.close pr;
      let verdict =
        match
          Client.submit ~retries:12 ~backoff:0.2 ~backoff_cap:1.0 ~socket
            (job ~id:"k9-1" ())
        with
        | Ok r ->
          Printf.sprintf "ok|%s|%s|%b|%b" r.Frame.r_outcome
            (match r.Frame.r_colors with
            | Some c -> string_of_int c
            | None -> "-")
            r.Frame.r_certified r.Frame.r_replayed
        | Error { last; _ } -> "gave-up|" ^ Client.failure_to_string last
      in
      ignore
        (Unix.write_substring pw verdict 0 (String.length verdict) : int);
      Unix.close pw;
      Unix._exit 0
    | pid -> pid
  in
  Unix.close pw;
  (* wait for the journal to show the job running (the runner is inside its
     2s hold), then SIGKILL the daemon mid-job *)
  let deadline = Mclock.now () +. 10.0 in
  let rec wait_running () =
    let st =
      match Journal.find (Journal.load journal_path) "k9-1" with
      | Some r -> List.assoc_opt "state" r
      | None -> None
    in
    if st = Some "running" then ()
    else if Mclock.now () > deadline then
      Alcotest.fail "job never reached running"
    else begin
      Unix.sleepf 0.05;
      wait_running ()
    end
  in
  wait_running ();
  Unix.kill pid1 Sys.sigkill;
  ignore (Unix.waitpid [] pid1);
  (* crash window: the client is now retrying against a dead socket *)
  Unix.sleepf 0.3;
  let pid2 = start_daemon cfg in
  Fun.protect ~finally:(fun () -> stop_daemon pid2) @@ fun () ->
  (* the restarted daemon must have requeued the in-flight job *)
  let verdict = read_all pr in
  Unix.close pr;
  ignore (Unix.waitpid [] cpid);
  (match String.split_on_char '|' verdict with
  | [ "ok"; outcome; colors; certified; _replayed ] ->
    check Alcotest.string "same outcome as uninterrupted" "optimal" outcome;
    check Alcotest.string "same chromatic number" "4" colors;
    check Alcotest.string "certified" "true" certified
  | _ -> Alcotest.fail ("client verdict: " ^ verdict));
  (* a fresh submit of the same id re-delivers idempotently *)
  let r = submit_ok ~socket (job ~id:"k9-1" ()) in
  check Alcotest.bool "re-delivered from journal" true r.Frame.r_replayed;
  check Alcotest.string "journal answer matches" "optimal" r.Frame.r_outcome;
  check (Alcotest.option Alcotest.int) "journal colors match" (Some 4)
    r.Frame.r_colors;
  (* the solve that completed after recovery populated the result cache, so
     a NEW id with the same parameters is served from it — re-certified *)
  let r_new = submit_ok ~socket (job ~id:"k9-2" ()) in
  check Alcotest.string "cache survives kill -9" "optimal"
    r_new.Frame.r_outcome;
  check Alcotest.bool "cached delivery certified" true
    r_new.Frame.r_certified;
  (match Client.health ~timeout:5.0 ~socket () with
  | Ok h ->
    check Alcotest.bool "cache hit recorded" true (h.Frame.h_cache_hits >= 1)
  | Error f ->
    Alcotest.fail ("health failed: " ^ Client.failure_to_string f));
  (* and the journal's terminal state is done — the accepted job was never
     lost across the crash *)
  match Journal.find (Journal.load journal_path) "k9-1" with
  | Some rec_ ->
    check (Alcotest.option Alcotest.string) "terminal state" (Some "done")
      (List.assoc_opt "state" rec_)
  | None -> Alcotest.fail "job must be journaled after recovery"

(* ---------- warm pool, result cache, coalescing ---------- *)

let health_ok ~socket () =
  match Client.health ~timeout:5.0 ~socket () with
  | Ok h -> h
  | Error f -> Alcotest.fail ("health failed: " ^ Client.failure_to_string f)

(* open a connection, submit, expect Accepted; the Result frame is read
   later from the same fd *)
let submit_async ~socket j =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (match Frame.write_frame fd (Frame.encode_request (Frame.Submit j)) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Frame.io_error_to_string e));
  (match Frame.read_frame ~deadline:(Mclock.now () +. 5.0) fd with
  | Ok payload -> (
    match Frame.decode_response payload with
    | Ok (Frame.Accepted _) -> ()
    | Ok _ -> Alcotest.fail "expected Accepted"
    | Error e -> Alcotest.fail (Frame.error_to_string e))
  | Error e -> Alcotest.fail (Frame.read_error_to_string e));
  fd

let read_result fd =
  match Frame.read_frame ~deadline:(Mclock.now () +. 30.0) fd with
  | Ok payload -> (
    match Frame.decode_response payload with
    | Ok (Frame.Result r) -> r
    | Ok _ -> Alcotest.fail "expected Result"
    | Error e -> Alcotest.fail (Frame.error_to_string e))
  | Error e -> Alcotest.fail (Frame.read_error_to_string e)

let test_pool_coalescing () =
  (* N concurrent jobs with identical parameters but distinct ids: ONE
     solve, N certified replies — each under its own id, each journaled
     terminally under its own key *)
  let paths = fresh_paths "coalesce" in
  let socket, journal_path, _ = paths in
  let pid = start_daemon (daemon_cfg ~max_running:4 ~hold:1.0 paths) in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let ids = [ "co-1"; "co-2"; "co-3" ] in
  let fds = List.map (fun id -> submit_async ~socket (job ~id ())) ids in
  let results = List.map read_result fds in
  List.iter Unix.close fds;
  List.iter2
    (fun id r ->
      check Alcotest.string "reply under its own id" id r.Frame.r_job_id;
      check Alcotest.string "optimal" "optimal" r.Frame.r_outcome;
      check (Alcotest.option Alcotest.int) "chi = 4" (Some 4) r.Frame.r_colors;
      check Alcotest.bool "certified" true r.Frame.r_certified)
    ids results;
  let h = health_ok ~socket () in
  check Alcotest.int "two duplicates coalesced" 2 h.Frame.h_coalesced;
  check Alcotest.int "one solve missed the cache" 1 h.Frame.h_cache_misses;
  (* the journal shows exactly one job ever reached [running]; the
     duplicates went from accepted straight to done *)
  let j = Journal.load journal_path in
  let ran =
    List.filter
      (fun r ->
        List.assoc_opt "state" r = Some "running"
        && match List.assoc_opt "key" r with
           | Some k -> List.mem k ids
           | None -> false)
      (Journal.records j)
  in
  check Alcotest.int "exactly one running record" 1 (List.length ran);
  List.iter
    (fun id ->
      match Journal.find j id with
      | Some r ->
        check (Alcotest.option Alcotest.string)
          (id ^ " journaled done") (Some "done") (List.assoc_opt "state" r)
      | None -> Alcotest.fail (id ^ " must be journaled"))
    ids

let test_pool_cache_hit () =
  (* a second job with the same parameters under a new id is served from
     the cache — re-certified, no second solve *)
  let paths = fresh_paths "cachehit" in
  let socket, _, _ = paths in
  let pid = start_daemon (daemon_cfg paths) in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let r1 = submit_ok ~socket (job ~id:"ch-1" ()) in
  check Alcotest.string "first solves" "optimal" r1.Frame.r_outcome;
  let r2 = submit_ok ~socket (job ~id:"ch-2" ()) in
  check Alcotest.string "hit is optimal" "optimal" r2.Frame.r_outcome;
  check (Alcotest.option Alcotest.int) "same chromatic number"
    r1.Frame.r_colors r2.Frame.r_colors;
  check Alcotest.bool "hit is certified" true r2.Frame.r_certified;
  check Alcotest.bool "fresh delivery, not a journal replay" false
    r2.Frame.r_replayed;
  check Alcotest.bool "detail names the cache" true
    (contains_substring r2.Frame.r_detail "cache");
  let h = health_ok ~socket () in
  check Alcotest.int "one cache hit" 1 h.Frame.h_cache_hits;
  check Alcotest.int "one cache miss" 1 h.Frame.h_cache_misses

let test_cold_path_no_cache () =
  (* no pool, no cache: every job takes the cold fork path (also where the
     daemon falls back while the pool's breaker is open), and a repeated
     instance under a new id solves again rather than hitting a cache *)
  let paths = fresh_paths "coldnocache" in
  let socket, journal_path, _ = paths in
  let pid = start_daemon (daemon_cfg ~pool_size:0 ~cache:false paths) in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let myciel4 =
    { (job ~id:"cn-3" ()) with
      Frame.dimacs = Dimacs_col.to_string (Generators.mycielski 4) }
  in
  let jobs = [ (job ~id:"cn-1" (), 4); (job ~id:"cn-2" (), 4); (myciel4, 5) ] in
  List.iter
    (fun (j, chi) ->
      let id = j.Frame.job_id in
      let r = submit_ok ~socket j in
      check Alcotest.string (id ^ " reply under its own id") id r.Frame.r_job_id;
      check Alcotest.string (id ^ " optimal") "optimal" r.Frame.r_outcome;
      check (Alcotest.option Alcotest.int) (id ^ " chi") (Some chi)
        r.Frame.r_colors;
      check Alcotest.bool (id ^ " certified") true r.Frame.r_certified;
      check Alcotest.bool (id ^ " not from a cache") false
        (contains_substring r.Frame.r_detail "cache"))
    jobs;
  let h = health_ok ~socket () in
  check Alcotest.int "no cache hit" 0 h.Frame.h_cache_hits;
  check Alcotest.int "no warm worker" 0 h.Frame.h_pool_warm;
  (* exactly one verdict per job: one terminal record each *)
  let journal = Journal.load journal_path in
  List.iter
    (fun (j, _) ->
      let id = j.Frame.job_id in
      let done_ =
        List.filter
          (fun r ->
            List.assoc_opt "key" r = Some id
            && List.assoc_opt "state" r = Some "done")
          (Journal.records journal)
      in
      check Alcotest.int (id ^ " journaled done once") 1 (List.length done_))
    jobs

let test_pool_cache_tamper () =
  (* a forged cache entry in the journal (append wins per key) must be
     rejected by delivery-time re-certification and the job re-solved —
     tampered bytes can never become a certified answer *)
  let paths = fresh_paths "tamper" in
  let socket, journal_path, _ = paths in
  let cfg = daemon_cfg paths in
  let pid1 = start_daemon cfg in
  let r1 = submit_ok ~socket (job ~id:"tm-1" ()) in
  check Alcotest.string "seed solve" "optimal" r1.Frame.r_outcome;
  stop_daemon pid1;
  (* forge the entry for this parameter digest: a zero coloring colors
     adjacent vertices alike, so certification must fail *)
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00" [ myciel3_text; ""; "dsatur"; ""; "false"; "0" ]))
  in
  let nverts =
    match Dimacs_col.parse_result myciel3_text with
    | Ok g -> Colib_graph.Graph.num_vertices g
    | Error _ -> Alcotest.fail "myciel3 must parse"
  in
  let forged_coloring =
    String.concat " " (List.init nverts (fun _ -> "0"))
  in
  let j = Journal.load journal_path in
  Journal.append j
    [
      ("key", "__cache__" ^ digest);
      ("state", "entry");
      ("colors", "4");
      ("coloring", forged_coloring);
      ("winner", "forged");
      ("time", "0.001");
    ];
  Journal.close j;
  let pid2 = start_daemon cfg in
  Fun.protect ~finally:(fun () -> stop_daemon pid2) @@ fun () ->
  let r2 = submit_ok ~socket (job ~id:"tm-2" ()) in
  check Alcotest.string "re-solved to optimal" "optimal" r2.Frame.r_outcome;
  check (Alcotest.option Alcotest.int) "correct chromatic number" (Some 4)
    r2.Frame.r_colors;
  check Alcotest.bool "certified" true r2.Frame.r_certified;
  check Alcotest.bool "not served from the forged entry" false
    (contains_substring r2.Frame.r_detail "cache");
  let h = health_ok ~socket () in
  check Alcotest.int "forged entry never hit" 0 h.Frame.h_cache_hits

let test_pool_recycling () =
  (* recycle_jobs = 1: every job retires its worker; the slot respawns and
     service continues — recycling is planned turnover, not a restart *)
  let paths = fresh_paths "recycle" in
  let socket, _, _ = paths in
  let pid =
    start_daemon (daemon_cfg ~max_running:1 ~pool_size:1 ~recycle_jobs:1 paths)
  in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  for i = 1 to 3 do
    (* distinct seeds -> distinct digests, so every job truly solves *)
    let j = { (job ~id:(Printf.sprintf "rc-%d" i) ()) with Frame.j_seed = i } in
    let r = submit_ok ~retries:8 ~socket j in
    check Alcotest.string (Printf.sprintf "job %d optimal" i) "optimal"
      r.Frame.r_outcome
  done;
  let h = health_ok ~socket () in
  check Alcotest.bool "workers recycled" true (h.Frame.h_pool_recycles >= 2);
  check Alcotest.int "recycling is not a crash restart" 0
    h.Frame.h_pool_restarts

let test_pool_worker_killed () =
  (* chaos: SIGKILL the worker right after the first dispatch lands on it;
     the pool respawns the slot, the daemon requeues the job warm, and the
     client still receives a certified result *)
  let paths = fresh_paths "workerkill" in
  let socket, _, _ = paths in
  let pid =
    start_daemon
      (daemon_cfg ~max_running:1 ~pool_size:1 ~hold:0.3
         ~pool_faults:(Chaos.worker_scripted [ (0, Chaos.Worker_kill) ])
         paths)
  in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let r = submit_ok ~retries:8 ~socket (job ~id:"wk-1" ()) in
  check Alcotest.string "survives the worker kill" "optimal"
    r.Frame.r_outcome;
  check (Alcotest.option Alcotest.int) "chi = 4" (Some 4) r.Frame.r_colors;
  check Alcotest.bool "certified" true r.Frame.r_certified;
  let h = health_ok ~socket () in
  check Alcotest.bool "slot respawned after the kill" true
    (h.Frame.h_pool_restarts >= 1)

(* ---------- resource exhaustion: the degradation ladder ---------- *)

let test_daemon_degraded_recovers () =
  (* the disk-full gate: inside an injected ENOSPC window the daemon sheds
     new submissions with a typed Unavailable (it cannot journal their
     acceptance), stays up, answers Health with the degraded state, and
     re-arms automatically once the disk recovers — with every job it DID
     accept ending journaled as done *)
  let paths = fresh_paths "degraded" in
  let socket, journal_path, _ = paths in
  let cfg = daemon_cfg paths in
  let pid =
    start_daemon
      ~pre:(fun () ->
        Chaos.fs_install (Chaos.fs_timed [ (Chaos.Enospc, 1.0, 3.0) ]))
      cfg
  in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  (* before the window: normal service; these jobs must end done *)
  let r = submit_ok ~socket (job ~id:"deg-before" ()) in
  check Alcotest.string "pre-window submit solves" "optimal"
    r.Frame.r_outcome;
  (* probe single attempts until the window opens and one is shed typed *)
  let deadline = Mclock.now () +. 8.0 in
  let rec wait_unavailable i =
    if Mclock.now () > deadline then
      Alcotest.fail "daemon never entered the degraded state"
    else
      match
        Client.submit ~retries:0 ~sleep:no_sleep ~socket
          (job ~id:(Printf.sprintf "deg-probe-%d" i) ())
      with
      | Error { last = Client.Unavailable reason; _ } -> reason
      | Ok _ | Error _ ->
        Unix.sleepf 0.1;
        wait_unavailable (i + 1)
  in
  let reason = wait_unavailable 0 in
  check Alcotest.bool "shed names the durability failure" true
    (contains_substring reason "durability degraded");
  (* the Health frame reports the ladder state while degraded *)
  (match Client.health ~socket () with
  | Ok h ->
    check Alcotest.bool "health says degraded" true
      (contains_substring h.Frame.h_durability "degraded");
    check Alcotest.bool "health carries the I/O error" true
      (String.length h.Frame.h_last_io_error > 0)
  | Error f -> Alcotest.fail ("health failed: " ^ Client.failure_to_string f));
  (* past the window the daemon re-arms on its own: a patient client gets
     a certified answer with no operator action *)
  let r2 =
    submit_ok ~retries:12 ~socket (job ~id:"deg-after" ())
  in
  check Alcotest.string "post-recovery submit solves" "optimal"
    r2.Frame.r_outcome;
  check Alcotest.bool "certified" true r2.Frame.r_certified;
  let rec wait_durable tries =
    match Client.health ~socket () with
    | Ok h when h.Frame.h_durability = "ok" -> ()
    | Ok _ when tries > 0 ->
      Unix.sleepf 0.2;
      wait_durable (tries - 1)
    | Ok h -> Alcotest.failf "still %s after recovery" h.Frame.h_durability
    | Error f -> Alcotest.fail ("health failed: " ^ Client.failure_to_string f)
  in
  wait_durable 25;
  (* invariant: every job the daemon accepted ended in a terminal state *)
  let j = Journal.load journal_path in
  List.iter
    (fun r ->
      match List.assoc_opt "key" r with
      | Some k when not (String.length k >= 2 && String.sub k 0 2 = "__") -> (
        match List.assoc_opt "state" (Option.get (Journal.find j k)) with
        | Some ("done" | "failed" | "shed") -> ()
        | st ->
          Alcotest.failf "job %s left non-terminal: %s" k
            (Option.value st ~default:"<none>"))
      | _ -> ())
    (Journal.records j)

let test_daemon_fd_exhaustion () =
  (* fd-pressure gate: with the daemon's RLIMIT_NOFILE lowered, a horde of
     idle connections drives accept into EMFILE; the daemon must treat it
     as an incident — shed idles, keep the backlog draining, record the
     error — and stay fully serviceable afterwards *)
  let paths = fresh_paths "fdlimit" in
  let socket, _, _ = paths in
  let cfg = daemon_cfg ~io_timeout:30.0 paths in
  let pid =
    start_daemon
      ~pre:(fun () -> ignore (Durable.set_rlimit_nofile 32 : bool))
      cfg
  in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let idle = ref [] in
  for _ = 1 to 40 do
    match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
    | fd -> (
      try
        Unix.connect fd (Unix.ADDR_UNIX socket);
        idle := fd :: !idle
      with Unix.Unix_error _ -> Unix.close fd)
    | exception Unix.Unix_error _ -> ()
  done;
  check Alcotest.bool "pressure built (most connects landed)" true
    (List.length !idle >= 30);
  Unix.sleepf 0.5;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !idle;
  Unix.sleepf 0.3;
  (* the incident was recorded, not swallowed *)
  let rec health_retry tries =
    match Client.health ~socket () with
    | Ok h -> h
    | Error f ->
      if tries = 0 then
        Alcotest.fail ("health failed: " ^ Client.failure_to_string f)
      else begin
        Unix.sleepf 0.2;
        health_retry (tries - 1)
      end
  in
  let h = health_retry 25 in
  check Alcotest.bool "EMFILE incident recorded in health" true
    (contains_substring h.Frame.h_last_io_error "accept");
  (* and the daemon still solves *)
  let r = submit_ok ~retries:8 ~socket (job ~id:"fd-1" ()) in
  check Alcotest.string "serviceable after fd pressure" "optimal"
    r.Frame.r_outcome

(* ---------- the self-healing supervisor ---------- *)

let read_pid_file path =
  match open_in path with
  | ic ->
    let pid = try int_of_string (String.trim (input_line ic)) with _ -> -1 in
    close_in_noerr ic;
    pid
  | exception Sys_error _ -> -1

let test_supervise_restarts_sigkill () =
  (* the healing gate: SIGKILL the supervised daemon; the wrapper must
     restart it (fresh pid in the pid file, journal replayed), the Health
     frame must count the extra life, and a SIGTERM to the wrapper must
     drain the daemon and end supervision with exit 0 *)
  let paths = fresh_paths "supervised" in
  let socket, _, _ = paths in
  let cfg = daemon_cfg paths in
  let pid_file = Filename.concat (Filename.dirname socket) "daemon.pid" in
  let sup =
    match Unix.fork () with
    | 0 ->
      let scfg =
        Supervise.config ~backoff:0.05 ~backoff_cap:0.2 ~max_restarts:10
          ~window:30.0 ~pid_file ()
      in
      Unix._exit (Supervise.run scfg ~start:(fun () -> Server.run cfg))
    | pid -> pid
  in
  let failed fmt =
    Printf.ksprintf
      (fun msg ->
        (try Unix.kill sup Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] sup);
        Alcotest.fail msg)
      fmt
  in
  let rec wait_ready deadline =
    if Mclock.now () > deadline then failed "supervised daemon never came up"
    else
      match Client.ping ~timeout:0.5 ~socket () with
      | Ok () -> ()
      | Error _ ->
        Unix.sleepf 0.05;
        wait_ready deadline
  in
  wait_ready (Mclock.now () +. 10.0);
  (* the daemon answers pings before the supervisor's atomic pid-file
     write necessarily lands, so poll rather than read once *)
  let rec wait_pid deadline =
    let p = read_pid_file pid_file in
    if p > 0 then p
    else if Mclock.now () > deadline then -1
    else (
      Unix.sleepf 0.05;
      wait_pid deadline)
  in
  let dpid1 = wait_pid (Mclock.now () +. 5.0) in
  check Alcotest.bool "pid file names the daemon" true (dpid1 > 0);
  Unix.kill dpid1 Sys.sigkill;
  (* the wrapper must bring up a fresh child *)
  let deadline = Mclock.now () +. 10.0 in
  let rec wait_restart () =
    if Mclock.now () > deadline then failed "daemon was not restarted"
    else
      let p = read_pid_file pid_file in
      if p > 0 && p <> dpid1 && Client.ping ~timeout:0.5 ~socket () = Ok ()
      then p
      else begin
        Unix.sleepf 0.05;
        wait_restart ()
      end
  in
  let dpid2 = wait_restart () in
  check Alcotest.bool "fresh pid after restart" true (dpid2 <> dpid1);
  (match Client.health ~socket () with
  | Ok h ->
    check Alcotest.bool "restart counted in health" true
      (h.Frame.h_restarts >= 1)
  | Error f -> failed "health failed: %s" (Client.failure_to_string f));
  (* and the restarted service still solves *)
  (match Client.submit ~retries:4 ~socket (job ~id:"sup-1" ()) with
  | Ok r ->
    check Alcotest.string "solves after restart" "optimal" r.Frame.r_outcome
  | Error { last; _ } ->
    failed "submit failed: %s" (Client.failure_to_string last));
  (* operator shutdown passes through and ends supervision cleanly *)
  Unix.kill sup Sys.sigterm;
  (match Unix.waitpid [] sup with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> Alcotest.failf "supervisor exited %d" c
  | _ -> Alcotest.fail "supervisor did not exit cleanly");
  check Alcotest.bool "pid file removed on shutdown" false
    (Sys.file_exists pid_file)

let test_supervise_circuit_breaker () =
  (* the breaker gate: a daemon scripted to SIGKILL itself shortly after
     every startup is a crash loop; the wrapper must give up after
     max_restarts crashes inside the window with its typed exit code
     instead of flapping forever *)
  let paths = fresh_paths "breaker" in
  let cfg = { (daemon_cfg paths) with Server.crash_after = Some 0.05 } in
  let t0 = Mclock.now () in
  let sup =
    match Unix.fork () with
    | 0 ->
      let scfg =
        Supervise.config ~backoff:0.02 ~backoff_cap:0.05 ~max_restarts:2
          ~window:30.0 ()
      in
      Unix._exit (Supervise.run scfg ~start:(fun () -> Server.run cfg))
    | pid -> pid
  in
  (match Unix.waitpid [] sup with
  | _, Unix.WEXITED c ->
    check Alcotest.int "typed breaker exit" Supervise.breaker_exit_code c
  | _ -> Alcotest.fail "supervisor must exit by itself on a crash loop");
  check Alcotest.bool "gave up promptly, no endless flap" true
    (Mclock.now () -. t0 < 20.0)

let test_client_backoff_shape () =
  (* the retry delays must follow min(cap, base*2^i) with jitter in
     [0.5, 1.5) — measured through the injected sleeper against a socket
     that does not exist *)
  let delays = ref [] in
  let sleep d = delays := d :: !delays in
  (match
     Client.submit ~retries:4 ~backoff:0.1 ~backoff_cap:0.4 ~sleep
       ~socket:(tmp_path "no-such-daemon.sock")
       (job ())
   with
  | Ok _ -> Alcotest.fail "no daemon, no result"
  | Error { attempts; last } ->
    check Alcotest.int "all attempts used" 5 attempts;
    check Alcotest.bool "typed unreachable" true
      (match last with Client.Unreachable _ -> true | _ -> false));
  let delays = List.rev !delays in
  check Alcotest.int "one delay per retry" 4 (List.length delays);
  List.iteri
    (fun i d ->
      let base = min 0.4 (0.1 *. (2.0 ** float_of_int i)) in
      check Alcotest.bool
        (Printf.sprintf "delay %d in [%.2f, %.2f)" i (base *. 0.5)
           (base *. 1.5))
        true
        (d >= (base *. 0.5) -. 1e-9 && d < (base *. 1.5) +. 1e-9))
    delays

let test_client_unavailable_after_accepted () =
  (* regression: a daemon whose durability degrades between Accepted and
     the Result answers Unavailable on the open connection. That is a
     transient condition (the job is journaled and will be re-run), NOT a
     protocol violation — the taxonomy must say so *)
  let socket, _, _ = fresh_paths "unavail" in
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX socket);
  Unix.listen srv 1;
  let pid =
    match Unix.fork () with
    | 0 ->
      (try
         let fd, _ = Unix.accept srv in
         (match Frame.read_frame ~deadline:(Mclock.now () +. 5.0) fd with
         | Ok _ | Error _ -> ());
         ignore
           (Frame.write_frame fd
              (Frame.encode_response (Frame.Accepted "ua-1")));
         ignore
           (Frame.write_frame fd
              (Frame.encode_response
                 (Frame.Unavailable { u_reason = "journal write failed" })));
         Unix.close fd
       with _ -> ());
      Unix._exit 0
    | pid -> pid
  in
  Unix.close srv;
  let res =
    Client.submit ~retries:0 ~sleep:no_sleep ~socket (job ~id:"ua-1" ())
  in
  ignore (Unix.waitpid [] pid);
  match res with
  | Ok _ -> Alcotest.fail "an Unavailable daemon cannot produce a result"
  | Error { attempts; last } -> (
    check Alcotest.int "one attempt, no inner retries" 1 attempts;
    match last with
    | Client.Unavailable reason ->
      check Alcotest.bool "daemon's reason surfaced" true
        (contains_substring reason "journal")
    | f ->
      Alcotest.fail
        ("Unavailable after Accepted must stay transient, got "
        ^ Client.failure_to_string f))

let test_pool_coalescing_under_shedding () =
  (* coalescing under shedding: the representative dies — every one of its
     attempts lands on a worker scripted to be SIGKILLed, so it finalizes
     as a typed failure. The coalesced duplicates must NOT be dragged down
     with it: they are requeued independently, the first becomes the new
     representative on a healthy worker, and each answers certified under
     its own id *)
  let paths = fresh_paths "shed-coalesce" in
  let socket, journal_path, _ = paths in
  let pid =
    start_daemon
      (daemon_cfg ~max_running:4 ~pool_size:1
         ~pool_faults:
           (Chaos.worker_scripted
              [
                (0, Chaos.Worker_kill);
                (1, Chaos.Worker_kill);
                (2, Chaos.Worker_kill);
              ])
         paths)
  in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  (* the representative: admitted first; its three attempts all hit
     scripted-killed workers *)
  let rep_fd = submit_async ~socket (job ~id:"shed-rep" ()) in
  (* the duplicates: same parameter digest — they coalesce onto the doomed
     representative (coalescing covers both its Queued-between-attempts
     and Running states) *)
  let dup_ids = [ "shed-1"; "shed-2" ] in
  let dup_fds = List.map (fun id -> submit_async ~socket (job ~id ())) dup_ids in
  let rep = read_result rep_fd in
  Unix.close rep_fd;
  check Alcotest.string "representative fails under its own attempts"
    "failed" rep.Frame.r_outcome;
  let dups = List.map read_result dup_fds in
  List.iter Unix.close dup_fds;
  List.iter2
    (fun id r ->
      check Alcotest.string "reply under its own id" id r.Frame.r_job_id;
      check Alcotest.string "duplicate survives the shed" "optimal"
        r.Frame.r_outcome;
      check (Alcotest.option Alcotest.int) "chi = 4" (Some 4) r.Frame.r_colors;
      check Alcotest.bool "certified" true r.Frame.r_certified)
    dup_ids dups;
  let h = health_ok ~socket () in
  check Alcotest.bool "duplicates had coalesced" true (h.Frame.h_coalesced >= 2);
  (* the journal: the representative ends failed, each duplicate ends done *)
  let j = Journal.load journal_path in
  (match Journal.find j "shed-rep" with
  | Some r ->
    check (Alcotest.option Alcotest.string) "representative journaled failed"
      (Some "failed") (List.assoc_opt "state" r)
  | None -> Alcotest.fail "shed-rep must be journaled");
  List.iter
    (fun id ->
      match Journal.find j id with
      | Some r ->
        check (Alcotest.option Alcotest.string)
          (id ^ " journaled done") (Some "done") (List.assoc_opt "state" r)
      | None -> Alcotest.fail (id ^ " must be journaled"))
    dup_ids

(* ---------- multi-daemon fleet ---------- *)

let test_balancer_ejects_dead_daemon () =
  (* a fleet where one socket is dead from the start: the balancer must
     eject it after one failed exchange and complete the job on the
     healthy daemon — one dead daemon costs an exchange, not a job *)
  let paths = fresh_paths "fleet-eject" in
  let socket, _, _ = paths in
  let dead = tmp_path "fleet-dead.sock" in
  let pid = start_daemon (daemon_cfg paths) in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let b = Balancer.create ~sleep:no_sleep [ dead; socket ] in
  let hops = ref [] in
  let r =
    match
      Balancer.submit ~retries:0
        ~on_dispatch:(fun i s -> hops := (i, s) :: !hops)
        b
        (job ~id:"fl-1" ())
    with
    | Ok r -> r
    | Error { attempts; last } ->
      Alcotest.fail
        (Printf.sprintf "fleet submit gave up after %d: %s" attempts
           (Client.failure_to_string last))
  in
  check Alcotest.string "optimal" "optimal" r.Frame.r_outcome;
  check Alcotest.bool "certified" true r.Frame.r_certified;
  (match List.rev !hops with
  | (0, s0) :: (1, s1) :: _ ->
    check Alcotest.string "first dispatch hit the dead daemon" dead s0;
    check Alcotest.string "re-dispatch hit the healthy one" socket s1
  | _ -> Alcotest.fail "expected two dispatches");
  let by_socket s =
    List.find (fun st -> st.Balancer.s_socket = s) (Balancer.stats b)
  in
  check Alcotest.int "dead daemon ejected" 1 (by_socket dead).Balancer.s_ejections;
  check Alcotest.bool "dead daemon banned" true (by_socket dead).Balancer.s_banned;
  check Alcotest.int "healthy daemon completed" 1
    (by_socket socket).Balancer.s_completed;
  (* a later probe readmits nothing while the socket stays dead *)
  Balancer.probe ~timeout:0.5 b;
  check Alcotest.int "probe ejects again" 2 (by_socket dead).Balancer.s_ejections

(* chaos gate (c): SIGKILL one of two daemons mid-solve. The client's
   exchange with the dying daemon fails, the balancer ejects it and
   re-dispatches the stranded job to the survivor, and the answer is the
   same certified chromatic number a healthy fleet produces *)
let test_fleet_daemon_sigkill_mid_solve () =
  let paths_a = fresh_paths "fleet-a" in
  let paths_b = fresh_paths "fleet-b" in
  let socket_a, _, _ = paths_a in
  let socket_b, _, _ = paths_b in
  (* daemon A holds every job 3 s so the kill lands mid-solve; B is fast *)
  let pid_a = start_daemon (daemon_cfg ~hold:3.0 paths_a) in
  let pid_b = start_daemon (daemon_cfg paths_b) in
  Fun.protect ~finally:(fun () ->
      (try Unix.kill pid_a Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid_a) with Unix.Unix_error _ -> ());
      stop_daemon pid_b)
  @@ fun () ->
  let killer =
    match Unix.fork () with
    | 0 ->
      Unix.sleepf 0.8;
      (try Unix.kill pid_a Sys.sigkill with Unix.Unix_error _ -> ());
      Unix._exit 0
    | pid -> pid
  in
  let b = Balancer.create ~sleep:no_sleep [ socket_a; socket_b ] in
  let hops = ref [] in
  let res =
    Balancer.submit ~retries:0
      ~on_dispatch:(fun i s -> hops := (i, s) :: !hops)
      b
      (job ~id:"fl-kill" ())
  in
  ignore (Unix.waitpid [] killer);
  (match res with
  | Ok r ->
    check Alcotest.string "survivor answers optimal" "optimal"
      r.Frame.r_outcome;
    check (Alcotest.option Alcotest.int) "same certified chi" (Some 4)
      r.Frame.r_colors;
    check Alcotest.bool "certified" true r.Frame.r_certified
  | Error { attempts; last } ->
    Alcotest.fail
      (Printf.sprintf "fleet must survive one daemon's death (%d: %s)"
         attempts
         (Client.failure_to_string last)));
  (match List.rev !hops with
  | (0, s0) :: (1, s1) :: _ ->
    check Alcotest.string "job first dispatched to the doomed daemon"
      socket_a s0;
    check Alcotest.string "stranded job re-dispatched to the survivor"
      socket_b s1
  | _ -> Alcotest.fail "expected the job to be re-dispatched");
  let st_a =
    List.find (fun st -> st.Balancer.s_socket = socket_a) (Balancer.stats b)
  in
  check Alcotest.bool "dead daemon ejected from the rotation" true
    (st_a.Balancer.s_ejections >= 1)

(* ---------- incremental sessions ---------- *)

module Session = Colib_session.Session

let sess_ok label = function
  | Ok v -> v
  | Error { Client.attempts; last } ->
    Alcotest.fail
      (Printf.sprintf "%s gave up after %d attempts: %s" label attempts
         (Client.failure_to_string last))

let sess_permanent label = function
  | Ok _ -> Alcotest.fail (label ^ ": expected a typed failure")
  | Error { Client.attempts; last } ->
    check Alcotest.int (label ^ ": permanent, no retry") 1 attempts;
    last

let test_session_frames_roundtrip () =
  List.iter
    (fun req ->
      match Frame.decode_request (Frame.encode_request req) with
      | Ok req' -> check Alcotest.bool "request roundtrips" true (req = req')
      | Error e -> Alcotest.fail (Frame.error_to_string e))
    [
      Frame.Sess_open
        {
          so_sid = "s1"; so_vertices = 8; so_colors = 8; so_edges = 28;
          so_lease = 60.0;
        };
      Frame.Sess_edit { se_sid = "s1"; se_seq = 3; se_op = "e 0 1" };
      Frame.Sess_query { sq_sid = "s1"; sq_seq = 4; sq_budget = 5.0 };
      Frame.Sess_close { sc_sid = "s1" };
    ];
  List.iter
    (fun resp ->
      match Frame.decode_response (Frame.encode_response resp) with
      | Ok resp' ->
        check Alcotest.bool "response roundtrips" true (resp = resp')
      | Error e -> Alcotest.fail (Frame.error_to_string e))
    [
      Frame.Sess_ok { sk_sid = "s1"; sk_seq = 3; sk_replayed = false };
      Frame.Sess_answer
        {
          sa_sid = "s1"; sa_seq = 4; sa_chi = 3; sa_coloring = [| 0; 1; 2 |];
          sa_certified = true; sa_incremental = true; sa_time = 0.01;
          sa_replayed = false;
        };
      Frame.Sess_expired { sx_sid = "s1" };
      Frame.Sess_evicted { sv_sid = "s1" };
    ]

let test_session_taxonomy () =
  (* the retry loop's contract: session reaping is permanent, load is not *)
  check Alcotest.bool "expired is permanent" false
    (Client.transient (Client.Session_expired "s"));
  check Alcotest.bool "evicted is permanent" false
    (Client.transient (Client.Session_evicted "s"));
  check Alcotest.bool "overloaded is transient" true
    (Client.transient (Client.Overloaded { queued = 1; capacity = 1 }));
  check Alcotest.bool "unavailable is transient" true
    (Client.transient (Client.Unavailable "disk"));
  check Alcotest.bool "rejected is permanent" false
    (Client.transient (Client.Rejected { job_id = "s"; reason = "" }))

let test_session_lifecycle () =
  let paths = fresh_paths "sess-life" in
  let socket, _, _ = paths in
  let pid = start_daemon (daemon_cfg paths) in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let sid = "life-1" in
  let a =
    sess_ok "open"
      (Client.sess_open ~sleep:no_sleep ~socket ~sid ~vertices:4 ~colors:4
         ~edges:6 ())
  in
  check Alcotest.bool "fresh open" false a.Client.ack_replayed;
  check Alcotest.int "stream starts at 0" 0 a.Client.ack_seq;
  let edit seq e =
    sess_ok
      (Printf.sprintf "edit %d" seq)
      (Client.sess_edit ~sleep:no_sleep ~socket ~sid ~seq e)
  in
  for seq = 1 to 3 do
    ignore (edit seq Session.Add_vertex : Client.sess_ack)
  done;
  ignore (edit 4 (Session.Add_edge (0, 1)) : Client.sess_ack);
  ignore (edit 5 (Session.Add_edge (0, 2)) : Client.sess_ack);
  ignore (edit 6 (Session.Add_edge (1, 2)) : Client.sess_ack);
  let ans =
    sess_ok "query"
      (Client.sess_query ~sleep:no_sleep ~socket ~sid ~seq:7 ())
  in
  check Alcotest.int "triangle: chi 3" 3 ans.Frame.sa_chi;
  check Alcotest.bool "daemon certified" true ans.Frame.sa_certified;
  check Alcotest.bool "fresh answer" false ans.Frame.sa_replayed;
  (* a duplicate edit frame (client retry) is acknowledged, not re-applied *)
  let dup = edit 4 (Session.Add_edge (0, 1)) in
  check Alcotest.bool "duplicate edit replayed" true dup.Client.ack_replayed;
  (* a duplicate query re-delivers the cached answer *)
  let ans2 =
    sess_ok "dup query"
      (Client.sess_query ~sleep:no_sleep ~socket ~sid ~seq:7 ())
  in
  check Alcotest.bool "duplicate query replayed" true ans2.Frame.sa_replayed;
  check Alcotest.int "same chi re-delivered" 3 ans2.Frame.sa_chi;
  (* an idempotent reopen reports the stream position *)
  let re =
    sess_ok "reopen"
      (Client.sess_open ~sleep:no_sleep ~socket ~sid ~vertices:4 ~colors:4
         ~edges:6 ())
  in
  check Alcotest.bool "reopen replayed" true re.Client.ack_replayed;
  check Alcotest.int "reopen reports last seq" 7 re.Client.ack_seq;
  (* close, then the stream is gone — a plain Rejected, not expired *)
  ignore
    (sess_ok "close" (Client.sess_close ~sleep:no_sleep ~socket ~sid ())
      : Client.sess_ack);
  (match
     sess_permanent "edit after close"
       (Client.sess_edit ~sleep:no_sleep ~socket ~sid ~seq:8
          Session.Add_vertex)
   with
  | Client.Rejected { reason; _ } ->
    check Alcotest.bool "reason names the close" true
      (contains_substring reason "closed")
  | f -> Alcotest.fail ("expected Rejected, got " ^ Client.failure_to_string f));
  match Client.health ~timeout:5.0 ~socket () with
  | Ok h ->
    check Alcotest.int "no open sessions left" 0 h.Frame.h_sess_open;
    check Alcotest.bool "replays counted" true (h.Frame.h_sess_replayed >= 2)
  | Error f -> Alcotest.fail ("health: " ^ Client.failure_to_string f)

let test_session_kill9_recovery () =
  (* the acceptance gate: kill -9 mid-edit-burst, restart, and every open
     session is restored to its exact post-edit state — duplicate frames
     are answered from the journal, the sequence stays idempotent, and a
     re-query yields the right certified chi *)
  let paths = fresh_paths "sess-k9" in
  let socket, _, _ = paths in
  let cfg = daemon_cfg paths in
  let pid1 = start_daemon cfg in
  let sid = "k9-sess" in
  ignore
    (sess_ok "open"
       (Client.sess_open ~sleep:no_sleep ~socket ~sid ~vertices:4 ~colors:4
          ~edges:6 ())
      : Client.sess_ack);
  let edit seq e =
    sess_ok
      (Printf.sprintf "edit %d" seq)
      (Client.sess_edit ~sleep:no_sleep ~socket ~sid ~seq e)
  in
  for seq = 1 to 4 do
    ignore (edit seq Session.Add_vertex : Client.sess_ack)
  done;
  ignore (edit 5 (Session.Add_edge (0, 1)) : Client.sess_ack);
  ignore (edit 6 (Session.Add_edge (0, 2)) : Client.sess_ack);
  ignore (edit 7 (Session.Add_edge (1, 2)) : Client.sess_ack);
  let a1 =
    sess_ok "query" (Client.sess_query ~sleep:no_sleep ~socket ~sid ~seq:8 ())
  in
  check Alcotest.int "pre-crash chi" 3 a1.Frame.sa_chi;
  (* SIGKILL mid-burst: the daemon dies right after acking edit 9; the
     client never learns whether 9 was applied and must retry it *)
  ignore (edit 9 (Session.Add_edge (0, 3)) : Client.sess_ack);
  Unix.kill pid1 Sys.sigkill;
  ignore (Unix.waitpid [] pid1);
  let pid2 = start_daemon cfg in
  (* pid2 is deliberately SIGKILLed below; only pid3 needs a guard *)
  (* at-least-once delivery across the crash: re-send the possibly-lost
     edit and its predecessors; the journal answers, nothing re-applies *)
  List.iter
    (fun (seq, e) ->
      let a = edit seq e in
      check Alcotest.bool
        (Printf.sprintf "edit %d replayed after recovery" seq)
        true a.Client.ack_replayed)
    [ (7, Session.Add_edge (1, 2)); (9, Session.Add_edge (0, 3)) ];
  (* the stream continues exactly where it left off *)
  let re =
    sess_ok "reopen"
      (Client.sess_open ~sleep:no_sleep ~socket ~sid ~vertices:4 ~colors:4
         ~edges:6 ())
  in
  check Alcotest.int "recovered at seq 9" 9 re.Client.ack_seq;
  ignore (edit 10 (Session.Add_edge (1, 3)) : Client.sess_ack);
  ignore (edit 11 (Session.Add_edge (2, 3)) : Client.sess_ack);
  let a2 =
    sess_ok "post-recovery query"
      (Client.sess_query ~sleep:no_sleep ~socket ~sid ~seq:12 ())
  in
  check Alcotest.int "K4 after recovery: chi 4" 4 a2.Frame.sa_chi;
  check Alcotest.bool "recovered answer certified" true a2.Frame.sa_certified;
  (* second crash: this time with un-snapshotted suffix edits (the query
     above snapshotted at seq 12; edits 13-14 live only in the journal) *)
  ignore (edit 13 (Session.Remove_edge (0, 3)) : Client.sess_ack);
  ignore (edit 14 (Session.Remove_edge (1, 3)) : Client.sess_ack);
  Unix.kill pid2 Sys.sigkill;
  ignore (Unix.waitpid [] pid2);
  let pid3 = start_daemon cfg in
  Fun.protect ~finally:(fun () -> stop_daemon pid3) @@ fun () ->
  let a3 =
    sess_ok "second recovery query"
      (Client.sess_query ~sleep:no_sleep ~socket ~sid ~seq:15 ())
  in
  check Alcotest.int "edit-log suffix replayed: chi 3" 3 a3.Frame.sa_chi;
  check Alcotest.bool "still certified" true a3.Frame.sa_certified;
  (match Client.health ~timeout:5.0 ~socket () with
  | Ok h ->
    check Alcotest.bool "recovery counted" true (h.Frame.h_sess_recovered >= 1)
  | Error f -> Alcotest.fail ("health: " ^ Client.failure_to_string f));
  ignore
    (sess_ok "close" (Client.sess_close ~sleep:no_sleep ~socket ~sid ())
      : Client.sess_ack)

let test_session_expiry () =
  let paths = fresh_paths "sess-exp" in
  let socket, _, _ = paths in
  let pid = start_daemon (daemon_cfg ~session_lease:1.0 paths) in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let sid = "exp-1" in
  ignore
    (sess_ok "open"
       (Client.sess_open ~sleep:no_sleep ~socket ~sid ~vertices:2 ~colors:2
          ~edges:1 ())
      : Client.sess_ack);
  ignore
    (sess_ok "edit"
       (Client.sess_edit ~sleep:no_sleep ~socket ~sid ~seq:1
          Session.Add_vertex)
      : Client.sess_ack);
  (* idle past the lease: the sweep reaps the session *)
  Unix.sleepf 1.8;
  (match
     sess_permanent "edit after expiry"
       (Client.sess_edit ~sleep:no_sleep ~socket ~sid ~seq:2
          Session.Add_vertex)
   with
  | Client.Session_expired _ -> ()
  | f ->
    Alcotest.fail ("expected Session_expired, got " ^ Client.failure_to_string f));
  (match Client.health ~timeout:5.0 ~socket () with
  | Ok h ->
    check Alcotest.bool "expiry counted" true (h.Frame.h_sess_expired >= 1)
  | Error f -> Alcotest.fail ("health: " ^ Client.failure_to_string f));
  (* the sid is reusable: a fresh open starts a fresh stream *)
  let a =
    sess_ok "reopen after expiry"
      (Client.sess_open ~sleep:no_sleep ~socket ~sid ~vertices:2 ~colors:2
         ~edges:1 ())
  in
  check Alcotest.bool "fresh stream" false a.Client.ack_replayed;
  check Alcotest.int "fresh seq" 0 a.Client.ack_seq

let test_session_eviction () =
  let paths = fresh_paths "sess-evict" in
  let socket, _, _ = paths in
  let pid = start_daemon (daemon_cfg ~max_sessions:1 paths) in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let open_sid sid =
    sess_ok ("open " ^ sid)
      (Client.sess_open ~sleep:no_sleep ~socket ~sid ~vertices:2 ~colors:2
         ~edges:1 ())
  in
  ignore (open_sid "ev-1" : Client.sess_ack);
  (* the bound is 1: opening a second session LRU-evicts the first *)
  ignore (open_sid "ev-2" : Client.sess_ack);
  (match
     sess_permanent "edit after eviction"
       (Client.sess_edit ~sleep:no_sleep ~socket ~sid:"ev-1" ~seq:1
          Session.Add_vertex)
   with
  | Client.Session_evicted _ -> ()
  | f ->
    Alcotest.fail ("expected Session_evicted, got " ^ Client.failure_to_string f));
  match Client.health ~timeout:5.0 ~socket () with
  | Ok h ->
    check Alcotest.int "one session open" 1 h.Frame.h_sess_open;
    check Alcotest.bool "eviction counted" true (h.Frame.h_sess_evicted >= 1)
  | Error f -> Alcotest.fail ("health: " ^ Client.failure_to_string f)

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "rejects confusion" `Quick
            test_wire_rejects_confusion;
        ] );
      ( "journal-rotation",
        [
          Alcotest.test_case "bounded + resumable" `Quick
            test_journal_rotation;
          Alcotest.test_case "unkeyed records survive" `Quick
            test_journal_rotation_preserves_unkeyed;
          Alcotest.test_case "per-key retention classes" `Quick
            test_journal_rotation_retain;
        ] );
      ( "sigpipe",
        [
          Alcotest.test_case "half-closed pipe typed" `Quick
            test_half_closed_pipe_write;
          Alcotest.test_case "slow reader deadline" `Quick
            test_write_frame_slow_reader_deadline;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end-to-end + idempotent redelivery" `Quick
            test_daemon_end_to_end;
          Alcotest.test_case "rejects malformed" `Quick
            test_daemon_rejects_malformed;
          Alcotest.test_case "sheds overload" `Quick
            test_daemon_sheds_overload;
          Alcotest.test_case "deadline zero" `Quick test_daemon_deadline_zero;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "net faults contained" `Quick
            test_daemon_survives_net_faults;
          Alcotest.test_case "slow-loris shed" `Quick
            test_daemon_sheds_slow_loris;
          Alcotest.test_case "kill -9 mid-job recovered" `Quick
            test_daemon_kill9_recovery;
        ] );
      ( "pool",
        [
          Alcotest.test_case "duplicate jobs coalesce: one solve, N replies"
            `Quick test_pool_coalescing;
          Alcotest.test_case "shed representative frees its duplicates"
            `Quick test_pool_coalescing_under_shedding;
          Alcotest.test_case "cache hit re-certified" `Quick
            test_pool_cache_hit;
          Alcotest.test_case "tampered cache entry rejected + re-solved"
            `Quick test_pool_cache_tamper;
          Alcotest.test_case "worker recycling keeps serving" `Quick
            test_pool_recycling;
          Alcotest.test_case "killed worker never loses the job" `Quick
            test_pool_worker_killed;
          Alcotest.test_case "cold path, cache off: one verdict per job"
            `Quick test_cold_path_no_cache;
        ] );
      ( "resource",
        [
          Alcotest.test_case "degraded ladder + auto re-arm" `Quick
            test_daemon_degraded_recovers;
          Alcotest.test_case "fd exhaustion incident" `Quick
            test_daemon_fd_exhaustion;
        ] );
      ( "supervise",
        [
          Alcotest.test_case "restart after SIGKILL" `Quick
            test_supervise_restarts_sigkill;
          Alcotest.test_case "circuit breaker on crash loop" `Quick
            test_supervise_circuit_breaker;
        ] );
      ( "client",
        [
          Alcotest.test_case "backoff shape" `Quick test_client_backoff_shape;
          Alcotest.test_case "Unavailable after Accepted stays transient"
            `Quick test_client_unavailable_after_accepted;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "session frames roundtrip" `Quick
            test_session_frames_roundtrip;
          Alcotest.test_case "retry taxonomy" `Quick test_session_taxonomy;
          Alcotest.test_case "session lifecycle + idempotent frames" `Quick
            test_session_lifecycle;
          Alcotest.test_case "session kill -9 recovery" `Quick
            test_session_kill9_recovery;
          Alcotest.test_case "session lease expiry" `Quick
            test_session_expiry;
          Alcotest.test_case "session LRU eviction" `Quick
            test_session_eviction;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "dead daemon ejected, job completes" `Quick
            test_balancer_ejects_dead_daemon;
          Alcotest.test_case "daemon SIGKILLed mid-solve, same certified chi"
            `Quick test_fleet_daemon_sigkill_mid_solve;
        ] );
    ]
