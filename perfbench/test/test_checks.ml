(* Every output check of the benchmark accepts a right output and
   rejects the same output corrupted. *)

open Perfbench_lib
module Generators = Colib_graph.Generators
module Dimacs_col = Colib_graph.Dimacs_col
module Proof = Colib_sat.Proof

let ok what = function
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: rejected a right output: %s" what e

let rejects what = function
  | Ok _ -> Alcotest.failf "%s: accepted a corrupted output" what
  | Error _ -> ()

(* a 5-cycle: chi 3 *)
let c5 = (5, [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 4) ])

let test_dimacs () =
  let n, edges = c5 in
  let n', edges' = Checks.parse_dimacs (Checks.dimacs_of_edges n edges) in
  Alcotest.(check int) "vertices" n n';
  Alcotest.(check (list (pair int int))) "edges" edges edges';
  let _, e2 = Checks.parse_dimacs "p edge 3 3\ne 1 2\ne 2 1\ne 3 3\n" in
  Alcotest.(check (list (pair int int))) "merged, no loops" [ (0, 1) ] e2

let test_oneshot () =
  let n, edges = c5 in
  let col = [| 0; 1; 0; 1; 2 |] in
  ok "chi 3" (Checks.oneshot_answer ~table1:(Some 3) ~n ~edges (Checks.Chi (3, col)));
  rejects "monochromatic edge"
    (Checks.oneshot_answer ~table1:(Some 3) ~n ~edges
       (Checks.Chi (3, [| 0; 0; 1; 0; 2 |])));
  rejects "chi off Table 1"
    (Checks.oneshot_answer ~table1:(Some 4) ~n ~edges (Checks.Chi (3, col)));
  rejects "more colors than chi"
    (Checks.oneshot_answer ~table1:(Some 3) ~n ~edges
       (Checks.Chi (3, [| 0; 1; 2; 1; 3 |])));
  (* K4 plus a pendant vertex: a 4-clique witnesses chi > 3 *)
  let k4 = (5, [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3); (3, 4) ]) in
  let n4, e4 = k4 in
  Alcotest.(check int) "clique of K4" 4 (Checks.greedy_clique ~n:n4 ~edges:e4);
  ok "refuted, clique witness" (Checks.oneshot_answer ~table1:None ~n:n4 ~edges:e4 (Checks.Above 3));
  rejects "refuted without a clique witness"
    (Checks.oneshot_answer ~table1:None ~n ~edges (Checks.Above 2));
  rejects "refuted, Table 1 lists chi"
    (Checks.oneshot_answer ~table1:(Some 3) ~n ~edges (Checks.Above 20))

(* a real certified run, then its proof with a forged claim *)
let test_proof_replay () =
  let text = Dimacs_col.to_string (Generators.mycielski 3) in
  let n, edges = Checks.parse_dimacs text in
  let inp = { Oneshot.name = "myciel3"; text; table1 = Some 4; n; edges } in
  let dir = Filename.get_temp_dir_name () in
  let path = Filename.concat dir (Printf.sprintf "perfbench-test-%d.proof" (Unix.getpid ())) in
  let o = Oneshot.run_flow path inp in
  ok "replay" o.Oneshot.replay;
  (match o.Oneshot.verdict with
  | Oneshot.Settled a -> ok "answer" (Checks.oneshot_answer ~table1:(Some 4) ~n ~edges a)
  | Oneshot.Budget | Oneshot.Unsettled _ -> Alcotest.fail "myciel3 did not settle");
  let g = Dimacs_col.parse text in
  let r = Colib_core.Flow.run g (Oneshot.config ()) in
  (match r.Colib_core.Flow.proof with
  | Some b ->
    rejects "forged optimality claim"
      (Oneshot.check_proof ~path ~formula:b.Colib_core.Flow.proof_formula
         ~claim:(Proof.Optimal_claim 3) b.Colib_core.Flow.proof_trace);
    (* y_0 ("color 0 is used") is not implied false: not RUP *)
    let forged =
      Proof.of_steps
        (Proof.Learn [ Colib_sat.Lit.neg 0 ] :: Proof.steps b.Colib_core.Flow.proof_trace)
    in
    rejects "proof with an underived clause"
      (Oneshot.check_proof ~path ~formula:b.Colib_core.Flow.proof_formula
         ~claim:b.Colib_core.Flow.proof_claim forged)
  | None -> Alcotest.fail "no proof bundle");
  if Sys.file_exists path then Sys.remove path

let test_session () =
  ok "no edits, same chi" (Checks.chi_step ~prev:5 ~next:5 ~adds:0 ~removes:0);
  ok "one add, +1" (Checks.chi_step ~prev:5 ~next:6 ~adds:1 ~removes:0);
  ok "mixed, -1" (Checks.chi_step ~prev:5 ~next:4 ~adds:1 ~removes:1);
  rejects "jump past the edits" (Checks.chi_step ~prev:5 ~next:7 ~adds:1 ~removes:0);
  rejects "drop after adds only" (Checks.chi_step ~prev:5 ~next:4 ~adds:2 ~removes:0);
  rejects "rise after removals only" (Checks.chi_step ~prev:5 ~next:6 ~adds:0 ~removes:2);
  rejects "change without edits" (Checks.chi_step ~prev:5 ~next:6 ~adds:0 ~removes:0);
  let n, edges = c5 in
  ok "proper" (Checks.coloring ~n ~edges [| 0; 1; 0; 1; 2 |]);
  rejects "improper" (Checks.coloring ~n ~edges [| 0; 1; 1; 0; 2 |]);
  rejects "short" (Checks.coloring ~n ~edges [| 0; 1 |])

let test_serve () =
  let iv = [ (0, 4); (1, 3); (2, 6); (5, 8); (7, 9) ] in
  Alcotest.(check int) "peak overlap" 3 (Checks.peak_overlap iv);
  Alcotest.(check int) "half-open ends" 1 (Checks.peak_overlap [ (0, 2); (2, 4) ]);
  let n, edges = Checks.interval_edges iv in
  let reply col colors =
    { Checks.outcome = "optimal"; colors = Some colors; col = Some col; certified = true }
  in
  let good = [| 0; 1; 2; 0; 1 |] in
  ok "right reply" (Checks.job_reply ~n ~edges ~chi:3 (reply good 3));
  rejects "improper reply" (Checks.job_reply ~n ~edges ~chi:3 (reply [| 0; 0; 2; 0; 1 |] 3));
  rejects "wrong chi" (Checks.job_reply ~n ~edges ~chi:3 (reply good 4));
  rejects "not optimal"
    (Checks.job_reply ~n ~edges ~chi:3 { (reply good 3) with Checks.outcome = "best" });
  rejects "uncertified"
    (Checks.job_reply ~n ~edges ~chi:3 { (reply good 3) with Checks.certified = false });
  ok "cache tally"
    (Checks.cache_accounting ~submitted:10 ~resubmitted:2 ~hits:2 ~misses:8 ~coalesced:0);
  rejects "missed hit"
    (Checks.cache_accounting ~submitted:10 ~resubmitted:2 ~hits:1 ~misses:9 ~coalesced:0);
  rejects "lost submission"
    (Checks.cache_accounting ~submitted:10 ~resubmitted:2 ~hits:2 ~misses:7 ~coalesced:0)

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "dimacs" `Quick test_dimacs;
          Alcotest.test_case "oneshot" `Quick test_oneshot;
          Alcotest.test_case "oneshot proof replay" `Quick test_proof_replay;
          Alcotest.test_case "session" `Quick test_session;
          Alcotest.test_case "serve" `Quick test_serve;
        ] );
    ]
