(* Supervision tests for the process-isolated portfolio: workers that
   segfault, hang, emit garbage, truncate frames, or exhaust memory must be
   contained and classified while a surviving configuration still delivers a
   parent-certified answer; the crash-safe journal must make interrupted
   sweeps resumable; and the whole race must stay reproducible via the
   per-worker seed stream. *)

module Generators = Colib_graph.Generators
module Types = Colib_solver.Types
module Certify = Colib_check.Certify
module Chaos = Colib_check.Chaos
module Flow = Colib_core.Flow
module Frame = Colib_portfolio.Frame
module Journal = Colib_portfolio.Journal
module P = Colib_portfolio.Portfolio

let check = Alcotest.check

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* myciel3: chi = 4, solved in milliseconds by every engine *)
let myciel3 () = Generators.mycielski 3

(* ---------- frame format ---------- *)

let decode_all s =
  let d = Frame.decoder () in
  Frame.feed d (Bytes.of_string s) (String.length s);
  Frame.state d

let test_frame_roundtrip () =
  let payload = "hello, worker" in
  (match decode_all (Frame.encode payload) with
  | Frame.Got p -> check Alcotest.string "payload" payload p
  | _ -> Alcotest.fail "roundtrip must decode");
  (* byte-at-a-time feeding must reach the same state *)
  let wire = Frame.encode payload in
  let d = Frame.decoder () in
  String.iter (fun c -> Frame.feed d (Bytes.make 1 c) 1) wire;
  match Frame.state d with
  | Frame.Got p -> check Alcotest.string "incremental payload" payload p
  | _ -> Alcotest.fail "incremental decode must succeed"

let test_frame_rejects_corruption () =
  let wire = Frame.encode "payload bytes" in
  (* flip one payload byte: checksum must catch it *)
  let b = Bytes.of_string wire in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xFF));
  (match decode_all (Bytes.to_string b) with
  | Frame.Failed Frame.Bad_checksum -> ()
  | _ -> Alcotest.fail "corrupt payload must fail the checksum");
  (* random leading bytes fail fast on the magic *)
  (match decode_all "garbage everywhere" with
  | Frame.Failed Frame.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic must be detected");
  (* a truncated frame stays Awaiting — EOF classification is the
     supervisor's job *)
  let half = String.sub wire 0 (String.length wire - 4) in
  match decode_all half with
  | Frame.Awaiting -> ()
  | _ -> Alcotest.fail "truncated frame must stay awaiting"

let test_frame_reset_preserves_surplus () =
  (* two frames can arrive in one read: after the first decodes, [reset]
     must keep the surplus bytes so the second frame is not lost *)
  let w1 = Frame.encode "first" and w2 = Frame.encode "second" in
  let both = w1 ^ w2 in
  let d = Frame.decoder () in
  Frame.feed d (Bytes.of_string both) (String.length both);
  (match Frame.state d with
  | Frame.Got p -> check Alcotest.string "first frame" "first" p
  | _ -> Alcotest.fail "first frame must decode");
  Frame.reset d;
  match Frame.state d with
  | Frame.Got p -> check Alcotest.string "second frame survives reset" "second" p
  | Frame.Awaiting -> Alcotest.fail "reset must not drop buffered surplus"
  | Frame.Failed _ -> Alcotest.fail "surplus must stay decodable"

let test_read_frame_stops_at_frame_end () =
  (* a daemon answering from its cache sends Accepted and Result back to
     back; both can land in one read, and the second [read_frame] call must
     still find its frame in the socket *)
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () ->
      let both = Frame.encode "first" ^ Frame.encode "second" in
      check Alcotest.int "one write" (String.length both)
        (Unix.write_substring w both 0 (String.length both));
      let read () =
        match
          Frame.read_frame ~deadline:(Colib_clock.Mclock.now () +. 2.0) r
        with
        | Ok p -> p
        | Error e -> Alcotest.fail (Frame.read_error_to_string e)
      in
      check Alcotest.string "first frame" "first" (read ());
      check Alcotest.string "second frame" "second" (read ()))

let test_share_codec () =
  (* the clause-share payload is plain text, not Marshal: a forged or
     garbled payload decodes to None, never to an exception, because it
     crosses a trust boundary between workers *)
  let clauses = [ [ 1; -2; 3 ]; [ -4 ]; [ 5; 6 ] ] in
  (match Frame.decode_share (Frame.encode_share clauses) with
  | Some c -> check Alcotest.bool "roundtrip" true (c = clauses)
  | None -> Alcotest.fail "genuine share must decode");
  (match Frame.decode_share (Frame.encode_share []) with
  | Some [] -> ()
  | _ -> Alcotest.fail "empty share must roundtrip");
  List.iter
    (fun junk ->
      match Frame.decode_share junk with
      | None -> ()
      | Some _ -> Alcotest.fail ("junk must not decode: " ^ junk))
    [
      "";
      "not a share at all";
      "CSH1 1,2;3,x";
      "CSH1 1,,2";
      "CSH2 1,2";
      "CSH1 99999999999999999999999";
    ]

(* ---------- clean race ---------- *)

let test_portfolio_clean_race () =
  let g = myciel3 () in
  let r =
    P.solve ~instance_dependent:false ~timeout:30.0 g ~k:5
      [ P.Engine_strategy Types.Pbs2; P.Engine_strategy Types.Galena;
        P.Dsatur_strategy ]
  in
  check Alcotest.bool "optimal 4" true (r.P.outcome = Flow.Optimal 4);
  check Alcotest.bool "winner recorded" true (r.P.winner <> None);
  check Alcotest.bool "certificate accepted" true
    (match r.P.certificate with Some (Ok ()) -> true | _ -> false);
  (* every spawned worker is accounted for: finished or cancelled *)
  check Alcotest.bool "some attempt recorded" true (r.P.attempts <> []);
  List.iter
    (fun (a : P.attempt) ->
      match a.P.outcome with
      | P.Done _ | P.Cancelled -> ()
      | o -> Alcotest.fail ("unexpected outcome: " ^ P.outcome_to_string o))
    r.P.attempts

(* ---------- the acceptance scenario: segfault + hang + garbage ---------- *)

let test_portfolio_survives_process_faults () =
  let g = myciel3 () in
  let chaos =
    Chaos.process_scripted
      [ (0, Chaos.Segfault); (1, Chaos.Hang); (2, Chaos.Garbage) ]
  in
  (* one slot: each faulted worker must fully fail — and be classified —
     before the next config spawns, so the hang really dies by watchdog
     rather than being cancelled by an early winner *)
  let r =
    P.solve ~jobs:1 ~retries:0 ~grace:0.25 ~instance_dependent:false
      ~timeout:1.0 ~chaos g ~k:5
      [ P.Engine_strategy Types.Pbs2; P.Engine_strategy Types.Galena;
        P.Engine_strategy Types.Pueblo; P.Dsatur_strategy ]
  in
  (* the surviving config must still deliver a parent-certified result *)
  check Alcotest.bool "optimal 4 from the survivor" true
    (r.P.outcome = Flow.Optimal 4);
  check (Alcotest.option Alcotest.string) "dsatur won" (Some "DSATUR B&B")
    r.P.winner;
  check Alcotest.bool "certificate accepted" true
    (match r.P.certificate with Some (Ok ()) -> true | _ -> false);
  (* all three failures classified in the attempt provenance *)
  let has p = List.exists (fun (a : P.attempt) -> p a.P.outcome) r.P.attempts in
  check Alcotest.bool "segfault classified" true
    (has (function P.Crashed s -> s = Sys.sigsegv | _ -> false));
  check Alcotest.bool "hang killed by watchdog" true
    (has (function P.Timed_out -> true | _ -> false));
  check Alcotest.bool "garbage classified" true
    (has (function P.Garbled _ -> true | _ -> false))

let test_portfolio_truncated_frame_retries_rotated () =
  let g = myciel3 () in
  (* single slot, both round-0 spawns sabotaged: only a retry can win.
     The surviving spawn must be a round-1 item rotated off the pbs2
     failure — i.e. running Galena *)
  let chaos =
    Chaos.process_scripted [ (0, Chaos.Truncated_frame); (1, Chaos.Garbage) ]
  in
  let r =
    P.solve ~jobs:1 ~retries:1 ~backoff:0.01 ~instance_dependent:false
      ~timeout:30.0 ~chaos g ~k:5
      [ P.Engine_strategy Types.Pbs2; P.Engine_strategy Types.Galena ]
  in
  check Alcotest.bool "optimal 4 after retry" true
    (r.P.outcome = Flow.Optimal 4);
  match r.P.attempts with
  | [ first; second; third ] ->
    check Alcotest.bool "truncated frame garbled" true
      (match first.P.outcome with P.Garbled _ -> true | _ -> false);
    check Alcotest.bool "garbage garbled" true
      (match second.P.outcome with P.Garbled _ -> true | _ -> false);
    check Alcotest.int "first was round 0" 0 first.P.round;
    check Alcotest.int "second was round 0" 0 second.P.round;
    check Alcotest.int "winner was a retry" 1 third.P.round;
    (* rotation: the retry of the pbs2 failure ran the *other* config *)
    check Alcotest.string "rotated config" "Galena"
      (P.strategy_name third.P.strategy);
    check Alcotest.bool "retry proved" true
      (match third.P.outcome with
      | P.Done a -> a.P.a_outcome = Flow.Optimal 4
      | _ -> false)
  | l ->
    Alcotest.fail
      (Printf.sprintf "expected 3 attempts, got %d" (List.length l))

let test_portfolio_oom_classified () =
  let g = myciel3 () in
  let chaos = Chaos.process_scripted [ (0, Chaos.Alloc_bomb) ] in
  let r =
    P.solve ~jobs:1 ~retries:1 ~backoff:0.01 ~instance_dependent:false
      ~timeout:30.0 ~chaos g ~k:5
      [ P.Engine_strategy Types.Pbs2; P.Dsatur_strategy ]
  in
  check Alcotest.bool "optimal 4 after oom retry" true
    (r.P.outcome = Flow.Optimal 4);
  check Alcotest.bool "oom classified" true
    (List.exists (fun (a : P.attempt) -> a.P.outcome = P.Oom) r.P.attempts)

let test_portfolio_all_faulted_never_lies () =
  let g = myciel3 () in
  let chaos =
    Chaos.process_scripted
      [ (0, Chaos.Segfault); (1, Chaos.Garbage); (2, Chaos.Segfault);
        (3, Chaos.Garbage) ]
  in
  let r =
    P.solve ~jobs:2 ~retries:1 ~backoff:0.01 ~instance_dependent:false
      ~timeout:30.0 ~chaos g ~k:5
      [ P.Engine_strategy Types.Pbs2; P.Engine_strategy Types.Galena ]
  in
  (* four spawns (two originals + two retries), all sabotaged: the
     supervisor must admit defeat, never fabricate an answer *)
  check Alcotest.bool "no certified answer" true
    (r.P.outcome = Flow.Timed_out);
  check (Alcotest.option Alcotest.string) "no winner" None r.P.winner;
  check Alcotest.int "all four spawns classified" 4 (List.length r.P.attempts)

let test_portfolio_first_certified_wins_cancels_losers () =
  let g = myciel3 () in
  (* spawn 0 hangs with a watchdog far beyond the race: it can only leave
     the attempt list as Cancelled, proving the winner killed it *)
  let chaos = Chaos.process_scripted [ (0, Chaos.Hang) ] in
  let r =
    P.solve ~jobs:2 ~retries:0 ~grace:30.0 ~instance_dependent:false
      ~timeout:30.0 ~chaos g ~k:5
      [ P.Engine_strategy Types.Pbs2; P.Dsatur_strategy ]
  in
  check Alcotest.bool "optimal 4" true (r.P.outcome = Flow.Optimal 4);
  check (Alcotest.option Alcotest.string) "dsatur won" (Some "DSATUR B&B")
    r.P.winner;
  check Alcotest.bool "hung loser was cancelled" true
    (List.exists (fun (a : P.attempt) -> a.P.outcome = P.Cancelled) r.P.attempts);
  check Alcotest.bool "race ended promptly, not at the watchdog" true
    (r.P.total_time < 25.0)

let test_portfolio_infeasible_certified () =
  (* chi(K5) = 5 > k = 4: the race must prove infeasibility *)
  let g = Generators.complete 5 in
  let r =
    P.solve ~instance_dependent:false ~timeout:30.0 g ~k:4
      [ P.Engine_strategy Types.Pbs2; P.Dsatur_strategy ]
  in
  check Alcotest.bool "no coloring" true (r.P.outcome = Flow.No_coloring);
  check Alcotest.bool "no coloring returned" true (r.P.coloring = None)

let test_portfolio_mem_limit_smoke () =
  (* a generous rlimit must not disturb a normal run — exercises the
     setrlimit stub end to end *)
  let g = myciel3 () in
  let r =
    P.solve ~mem_limit_mb:4096 ~instance_dependent:false ~timeout:30.0 g ~k:5
      [ P.Engine_strategy Types.Pbs2 ]
  in
  check Alcotest.bool "optimal under rlimit" true
    (r.P.outcome = Flow.Optimal 4)

let test_portfolio_interrupt () =
  let g = myciel3 () in
  let polls = ref 0 in
  (* stop the race from the second supervisor poll onward: whatever was
     running must be reaped and recorded as Cancelled *)
  let should_stop () =
    incr polls;
    !polls > 1
  in
  let chaos = Chaos.process_scripted [ (0, Chaos.Hang) ] in
  let r =
    P.solve ~jobs:1 ~retries:0 ~grace:30.0 ~instance_dependent:false
      ~timeout:30.0 ~chaos ~should_stop g ~k:5
      [ P.Engine_strategy Types.Pbs2 ]
  in
  check Alcotest.bool "flagged interrupted" true r.P.interrupted;
  check Alcotest.bool "worker cancelled" true
    (List.exists (fun (a : P.attempt) -> a.P.outcome = P.Cancelled) r.P.attempts)

(* ---------- deterministic seeds ---------- *)

let test_worker_seeds_deterministic () =
  let s0 = P.worker_seed ~run_seed:42 ~index:0 in
  let s1 = P.worker_seed ~run_seed:42 ~index:1 in
  check Alcotest.int "stable across calls" s0
    (P.worker_seed ~run_seed:42 ~index:0);
  check Alcotest.bool "distinct per index" true (s0 <> s1);
  check Alcotest.bool "distinct per run seed" true
    (s0 <> P.worker_seed ~run_seed:43 ~index:0);
  check Alcotest.bool "non-negative" true (s0 >= 0 && s1 >= 0);
  (* the race records exactly the derived seeds *)
  let g = myciel3 () in
  let r =
    P.solve ~seed:42 ~instance_dependent:false ~timeout:30.0 g ~k:5
      [ P.Engine_strategy Types.Pbs2; P.Dsatur_strategy ]
  in
  List.iter
    (fun (a : P.attempt) ->
      check Alcotest.bool "attempt seed from the run stream" true
        (a.P.seed = s0 || a.P.seed = s1))
    r.P.attempts

(* ---------- supervised map ---------- *)

let test_map_isolates_crashes () =
  let seen = ref [] in
  let results =
    P.map ~jobs:3 ~watchdog:30.0
      ~on_result:(fun i r -> seen := (i, Result.is_ok r) :: !seen)
      (fun i ->
        if i = 1 then Unix.kill (Unix.getpid ()) Sys.sigsegv;
        if i = 3 then failwith "boom";
        i * 10)
      [ 0; 1; 2; 3 ]
  in
  check Alcotest.int "all items accounted" 4 (Array.length results);
  check Alcotest.bool "item 0 ok" true (results.(0) = Ok 0);
  check Alcotest.bool "item 2 ok" true (results.(2) = Ok 20);
  (match results.(1) with
  | Error m ->
    check Alcotest.bool "crash names the signal" true
      (contains_substring (String.lowercase_ascii m) "segv")
  | Ok _ -> Alcotest.fail "crashed item must be an error");
  (match results.(3) with
  | Error m ->
    check Alcotest.bool "exception message survives" true
      (contains_substring m "boom")
  | Ok _ -> Alcotest.fail "raising item must be an error");
  check Alcotest.int "on_result fired per item" 4 (List.length !seen)

(* ---------- journal ---------- *)

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "colib_test_%s_%d.jsonl" name (Unix.getpid ()))

let test_journal_roundtrip () =
  let path = tmp_path "roundtrip" in
  let j = Journal.create path in
  Journal.append j
    [ ("key", "anna|sc|pbs2"); ("time", "1.25"); ("solved", "true") ];
  Journal.append j
    [ ("key", "anna|sc|galena"); ("time", "0.50"); ("solved", "false");
      ("note", "quote \" and \\ back\nslash") ];
  (* reload: both records visible, escaping intact *)
  let j' = Journal.load path in
  check Alcotest.int "two records" 2 (Journal.length j');
  check Alcotest.bool "key indexed" true (Journal.mem j' "anna|sc|pbs2");
  (match Journal.find j' "anna|sc|galena" with
  | Some r ->
    check (Alcotest.option Alcotest.string) "escaped field survives"
      (Some "quote \" and \\ back\nslash")
      (List.assoc_opt "note" r);
    check (Alcotest.option Alcotest.string) "time field" (Some "0.50")
      (List.assoc_opt "time" r)
  | None -> Alcotest.fail "second record must be found");
  Sys.remove path

let test_journal_resume_skips_completed () =
  let path = tmp_path "resume" in
  let j = Journal.create path in
  let cells = [ "c1"; "c2"; "c3"; "c4" ] in
  (* first run completes two cells, then "crashes" *)
  Journal.append j [ ("key", "c1"); ("time", "0.1") ];
  Journal.append j [ ("key", "c2"); ("time", "0.2") ];
  (* resumed run: only the unjournaled cells remain *)
  let j' = Journal.load path in
  let todo = List.filter (fun c -> not (Journal.mem j' c)) cells in
  check (Alcotest.list Alcotest.string) "resume skips completed cells"
    [ "c3"; "c4" ] todo;
  List.iter (fun c -> Journal.append j' [ ("key", c); ("time", "0.3") ]) todo;
  let j'' = Journal.load path in
  check Alcotest.int "all cells journaled" 4 (Journal.length j'');
  Sys.remove path

let test_journal_tolerates_garbage () =
  let path = tmp_path "garbage" in
  let j = Journal.create path in
  Journal.append j [ ("key", "good1") ];
  (* simulate a torn write from a non-atomic writer: trailing partial line *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"key\":\"torn";
  close_out oc;
  let j' = Journal.load path in
  check Alcotest.int "good record kept" 1 (Journal.length j');
  check Alcotest.bool "good key present" true (Journal.mem j' "good1");
  check Alcotest.bool "torn key absent" false (Journal.mem j' "torn");
  (* appending after a tolerant load re-commits a clean file *)
  Journal.append j' [ ("key", "good2") ];
  let j'' = Journal.load path in
  check Alcotest.int "clean after rewrite" 2 (Journal.length j'');
  Sys.remove path

let test_journal_durable_commit () =
  (* both writers go through the full tmp + fsync + rename + dir-fsync
     discipline: after either returns, the journal file is the committed
     version and no staging file lingers (the rename is the commit point) *)
  let path = tmp_path "durable" in
  let tmp = path ^ ".tmp" in
  (* a stale staging file from a writer killed pre-rename must not confuse
     either writer *)
  let oc = open_out tmp in
  output_string oc "{\"key\":\"stale-staging\"}\n";
  close_out oc;
  let j = Journal.create path in
  check Alcotest.bool "create commits the journal file" true
    (Sys.file_exists path);
  check Alcotest.bool "create leaves no staging file" false
    (Sys.file_exists tmp);
  check Alcotest.int "created empty despite stale staging" 0
    (Journal.length (Journal.load path));
  Journal.append j [ ("key", "c1"); ("solved", "true") ];
  check Alcotest.bool "append leaves no staging file" false
    (Sys.file_exists tmp);
  (* what append committed is what a fresh reader sees *)
  let j' = Journal.load path in
  check Alcotest.int "append committed one record" 1 (Journal.length j');
  check Alcotest.bool "record readable after commit" true (Journal.mem j' "c1");
  (* create over an existing journal is a durable truncation *)
  let j2 = Journal.create path in
  check Alcotest.int "create truncates the old journal" 0
    (Journal.length (Journal.load path));
  Journal.append j2 [ ("key", "c2") ];
  let j'' = Journal.load path in
  check Alcotest.int "fresh journal has only the new record" 1
    (Journal.length j'');
  check Alcotest.bool "old record gone" false (Journal.mem j'' "c1");
  check Alcotest.bool "new record present" true (Journal.mem j'' "c2");
  Sys.remove path

(* ---------- zero-timeout deadline edge (regression, satellite) ---------- *)

let test_zero_timeout_portfolio () =
  (* deadline == now must fire immediately in every worker; the race
     degrades honestly instead of spinning *)
  let g = Generators.mycielski 4 in
  let r =
    P.solve ~instance_dependent:false ~timeout:0.0 ~grace:5.0 g ~k:5
      [ P.Engine_strategy Types.Pbs2; P.Dsatur_strategy ]
  in
  check Alcotest.bool "no false optimal" true
    (match r.P.outcome with Flow.Optimal _ -> false | _ -> true)

let () =
  Alcotest.run "portfolio"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "rejects corruption" `Quick
            test_frame_rejects_corruption;
          Alcotest.test_case "reset preserves surplus" `Quick
            test_frame_reset_preserves_surplus;
          Alcotest.test_case "read_frame stops at the frame end" `Quick
            test_read_frame_stops_at_frame_end;
          Alcotest.test_case "share codec: text in, None on junk" `Quick
            test_share_codec;
        ] );
      ( "race",
        [
          Alcotest.test_case "clean race" `Quick test_portfolio_clean_race;
          Alcotest.test_case "segfault+hang+garbage survived" `Quick
            test_portfolio_survives_process_faults;
          Alcotest.test_case "truncated frame retried, rotated" `Quick
            test_portfolio_truncated_frame_retries_rotated;
          Alcotest.test_case "oom classified" `Quick
            test_portfolio_oom_classified;
          Alcotest.test_case "all faulted, never lies" `Quick
            test_portfolio_all_faulted_never_lies;
          Alcotest.test_case "first certified wins, losers cancelled" `Quick
            test_portfolio_first_certified_wins_cancels_losers;
          Alcotest.test_case "infeasibility proved" `Quick
            test_portfolio_infeasible_certified;
          Alcotest.test_case "rlimit smoke" `Quick
            test_portfolio_mem_limit_smoke;
          Alcotest.test_case "interrupt reaps workers" `Quick
            test_portfolio_interrupt;
          Alcotest.test_case "zero timeout degrades honestly" `Quick
            test_zero_timeout_portfolio;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "deterministic worker seeds" `Quick
            test_worker_seeds_deterministic;
        ] );
      ( "map",
        [ Alcotest.test_case "crash isolation" `Quick test_map_isolates_crashes ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "resume skips completed" `Quick
            test_journal_resume_skips_completed;
          Alcotest.test_case "tolerates garbage" `Quick
            test_journal_tolerates_garbage;
          Alcotest.test_case "both writers commit durably" `Quick
            test_journal_durable_commit;
        ] );
    ]
