(* Tests for the certification layer and the chaos-driven degradation
   ladder: the certifier must accept every result the stack returns and
   reject seeded-bug mutants; under injected faults the flow must degrade
   to certified-sound answers with honest provenance, never to a false
   Optimal. *)

module Graph = Colib_graph.Graph
module Generators = Colib_graph.Generators
module Brute = Colib_graph.Brute
module Clique = Colib_graph.Clique
module Formula = Colib_sat.Formula
module Lit = Colib_sat.Lit
module Encoding = Colib_encode.Encoding
module Sbp = Colib_encode.Sbp
module Types = Colib_solver.Types
module Engine = Colib_solver.Engine
module Optimize = Colib_solver.Optimize
module Certify = Colib_check.Certify
module Chaos = Colib_check.Chaos
module Flow = Colib_core.Flow
module Exact = Colib_core.Exact_coloring

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let is_ok = function Ok () -> true | Error _ -> false

(* ---------- coloring certificates ---------- *)

let test_certify_coloring_accepts () =
  let g = Generators.petersen () in
  let col = Colib_graph.Dsatur.dsatur g in
  let k = Colib_graph.Dsatur.num_colors col in
  check Alcotest.bool "proper coloring accepted" true
    (is_ok (Certify.coloring g ~k ~claimed:k col))

let test_certify_coloring_rejects_mutants () =
  let g = Generators.petersen () in
  let col = Colib_graph.Dsatur.dsatur g in
  let k = Colib_graph.Dsatur.num_colors col in
  (* wrong length *)
  check Alcotest.bool "short coloring rejected" false
    (is_ok (Certify.coloring g ~k ~claimed:k (Array.sub col 0 5)));
  (* color outside [0, k) *)
  let m1 = Array.copy col in
  m1.(0) <- k;
  check Alcotest.bool "out-of-range color rejected" false
    (is_ok (Certify.coloring g ~k ~claimed:k m1));
  let m2 = Array.copy col in
  m2.(3) <- -1;
  check Alcotest.bool "negative color rejected" false
    (is_ok (Certify.coloring g ~k ~claimed:k m2));
  (* recolor a vertex with a neighbor's color *)
  let m3 = Array.copy col in
  let u, v =
    let e = ref (0, 0) in
    (try Graph.iter_edges (fun u v -> e := (u, v); raise Exit) g
     with Exit -> ());
    !e
  in
  m3.(u) <- m3.(v);
  check Alcotest.bool "improper edge rejected" false
    (is_ok (Certify.coloring g ~k ~claimed:k m3));
  (* claim fewer colors than used *)
  check Alcotest.bool "undercounted colors rejected" false
    (is_ok (Certify.coloring g ~k ~claimed:(k - 1) col))

let test_certify_bounds_and_clique () =
  check Alcotest.bool "ordered bounds" true
    (is_ok (Certify.bounds ~lower:3 ~upper:5));
  check Alcotest.bool "inverted bounds" false
    (is_ok (Certify.bounds ~lower:6 ~upper:5));
  let g = Generators.complete 5 in
  check Alcotest.bool "K5 clique" true
    (is_ok (Certify.clique g [| 0; 1; 2; 3; 4 |]));
  let p = Generators.petersen () in
  check Alcotest.bool "petersen has no 3-clique" false
    (is_ok (Certify.clique p [| 0; 1; 2 |]))

(* ---------- model certificates ---------- *)

let test_certify_model () =
  let g = Generators.queens ~rows:4 ~cols:4 in
  let enc = Encoding.encode g ~k:5 in
  let f = enc.Encoding.formula in
  match Optimize.solve_formula Types.Pbs2 f (Types.within_seconds 30.0) with
  | Optimize.Optimal (m, c) ->
    check Alcotest.bool "model accepted" true (is_ok (Certify.model f m));
    check Alcotest.bool "cost accepted" true
      (is_ok (Certify.model_cost f m ~claimed:c));
    check Alcotest.bool "wrong cost rejected" false
      (is_ok (Certify.model_cost f m ~claimed:(c - 1)));
    (* flipping assignments must eventually falsify some constraint *)
    let broke = ref false in
    Array.iteri
      (fun i _ ->
        if not !broke then begin
          let m' = Array.copy m in
          m'.(i) <- not m'.(i);
          if not (is_ok (Certify.model f m')) then broke := true
        end)
      m;
    check Alcotest.bool "some single-bit mutant rejected" true !broke
  | _ -> Alcotest.fail "queen4_4 at K=5 must be solvable"

(* ---------- SBP soundness against the brute-force oracle ---------- *)

let test_sbp_preserves_optimum () =
  List.iter
    (fun (name, g, k) ->
      List.iter
        (fun sbp ->
          match Certify.sbp_preserves_optimum ~timeout:30.0 g ~k sbp with
          | Ok () -> ()
          | Error f ->
            Alcotest.fail
              (Printf.sprintf "%s + %s: %s" name (Sbp.name sbp)
                 (Certify.failure_to_string f)))
        Sbp.all)
    [
      ("petersen", Generators.petersen (), 4);
      ("myciel3", Generators.mycielski 3, 5);
      ("C5", Generators.cycle 5, 3);
      ("crown4", Generators.crown 4, 3);
      (* infeasible side: chi(K5) = 5 > 4 must stay UNSAT under every SBP *)
      ("K5 capped", Generators.complete 5, 4);
    ]

(* ---------- full-stack agreement with brute force (satellite d) ---------- *)

let engines = [ Types.Pbs2; Types.Galena; Types.Pueblo; Types.Cplex; Types.Pbs1 ]

let stack_agrees name g =
  let chi = Brute.chromatic_number g in
  List.iter
    (fun engine ->
      List.iter
        (fun sbp ->
          List.iter
            (fun instance_dependent ->
              let label =
                Printf.sprintf "%s/%s/%s/isd=%b" name
                  (Types.engine_name engine) (Sbp.name sbp) instance_dependent
              in
              let cfg =
                Flow.config ~engine ~sbp ~instance_dependent ~timeout:30.0
                  ~k:(chi + 1) ()
              in
              let r = Flow.run g cfg in
              (match r.Flow.outcome with
              | Flow.Optimal c -> check Alcotest.int label chi c
              | _ -> Alcotest.fail (label ^ ": expected optimal"));
              (match r.Flow.certificate with
              | Some (Ok ()) -> ()
              | _ -> Alcotest.fail (label ^ ": certificate missing/failed"));
              match r.Flow.coloring with
              | Some col ->
                check Alcotest.bool (label ^ " certifier accepts") true
                  (is_ok (Certify.coloring g ~k:(chi + 1) ~claimed:chi col));
                if Array.length col > 0 && chi > 1 then begin
                  (* seeded bug: collapse everything to one color *)
                  let mutant = Array.make (Array.length col) 0 in
                  check Alcotest.bool (label ^ " certifier rejects mutant")
                    false
                    (is_ok
                       (Certify.coloring g ~k:(chi + 1) ~claimed:chi mutant))
                end
              | None -> Alcotest.fail (label ^ ": no coloring"))
            [ false; true ])
        Sbp.all)
    engines

let test_stack_agrees_fixed () =
  stack_agrees "crown3" (Generators.crown 3);
  stack_agrees "myciel3" (Generators.mycielski 3)

let prop_stack_agrees_random =
  QCheck.Test.make ~name:"all engines x SBPs x isd = brute force" ~count:6
    (QCheck.make
       ~print:(fun (n, m, s) -> Printf.sprintf "gnm(%d,%d,%d)" n m s)
       QCheck.Gen.(
         let* n = int_range 4 7 in
         let* m = int_range 3 (n * (n - 1) / 2) in
         let* s = int_range 0 9999 in
         return (n, m, s)))
    (fun (n, m, s) ->
      let g = Generators.gnm ~n ~m ~seed:s in
      stack_agrees (Printf.sprintf "gnm(%d,%d,%d)" n m s) g;
      true)

(* ---------- chaos: injected faults through the ladder ---------- *)

(* queen5_5: clique and DSATUR bounds meet at 5, so the DSATUR fallback can
   settle the instance instantly once it is allowed to run *)
let queen5_5 () = Generators.queens ~rows:5 ~cols:5

let test_chaos_primary_killed_fallback_proves () =
  let g = queen5_5 () in
  let chaos = Chaos.scripted ~kill:[ 0 ] in
  let cfg =
    Flow.config ~instance_dependent:false ~timeout:30.0
      ~instrument:(Chaos.instrument chaos) ~verify:true ~k:5 ()
  in
  let r = Flow.run g cfg in
  check Alcotest.bool "fallback proves optimum" true
    (r.Flow.outcome = Flow.Optimal 5);
  check (Alcotest.list Alcotest.int) "exactly tick 0 sabotaged" [ 0 ]
    (Chaos.fired chaos);
  (match r.Flow.provenance with
  | first :: rest ->
    check Alcotest.bool "primary reported cancelled" true
      (first.Flow.stop = Some Types.Cancelled);
    check Alcotest.bool "primary proved nothing" false first.Flow.proved;
    check Alcotest.bool "a later rung proved" true
      (List.exists (fun a -> a.Flow.proved) rest)
  | [] -> Alcotest.fail "empty provenance");
  match r.Flow.certificate with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "certificate must accept the fallback's coloring"

let test_chaos_two_stages_killed_degrades_to_heuristic () =
  (* myciel3: clique 2 < DSATUR 4, so no rung can prove anything for free —
     sabotaged rungs can only contribute their heuristic coloring *)
  let g = Generators.mycielski 3 in
  let chaos = Chaos.scripted ~kill:[ 0; 1 ] in
  let cfg =
    Flow.config ~instance_dependent:false ~timeout:30.0
      ~instrument:(Chaos.instrument chaos) ~verify:true ~k:4 ()
  in
  let r = Flow.run g cfg in
  (match r.Flow.outcome with
  | Flow.Best 4 -> ()
  | Flow.Optimal _ -> Alcotest.fail "no surviving stage can prove optimality"
  | _ -> Alcotest.fail "a surviving rung must contribute a coloring");
  check Alcotest.int "three rungs ran" 3 (List.length r.Flow.provenance);
  (match r.Flow.certificate with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "heuristic coloring must certify");
  match List.map (fun a -> a.Flow.stop) r.Flow.provenance with
  | [ Some Types.Cancelled; Some Types.Cancelled; None ] -> ()
  | _ -> Alcotest.fail "provenance must record both cancellations"

let test_chaos_all_killed_never_claims_optimal () =
  let g = Generators.mycielski 3 in
  let chaos = Chaos.always () in
  (* no heuristic rung either: the flow must admit it proved nothing *)
  let cfg =
    Flow.config ~instance_dependent:false ~timeout:30.0
      ~fallback:[ Flow.Fallback_dsatur ]
      ~instrument:(Chaos.instrument chaos) ~k:4 ()
  in
  let r = Flow.run g cfg in
  (match r.Flow.outcome with
  | Flow.Optimal _ | Flow.No_coloring ->
    Alcotest.fail "a fully sabotaged run cannot prove anything"
  | Flow.Timed_out | Flow.Best _ -> ());
  check Alcotest.int "both rungs were sabotaged" 2 (Chaos.ticks chaos)

let test_chaos_engine_fallback_chain () =
  (* kill the primary; an alternate engine rung finishes the proof *)
  let g = Generators.mycielski 3 in
  let chaos = Chaos.scripted ~kill:[ 0 ] in
  let cfg =
    Flow.config ~engine:Types.Pbs2 ~instance_dependent:false ~timeout:30.0
      ~fallback:[ Flow.Fallback_engine Types.Galena ]
      ~instrument:(Chaos.instrument chaos) ~verify:true ~k:5 ()
  in
  let r = Flow.run g cfg in
  check Alcotest.bool "alternate engine proves" true
    (r.Flow.outcome = Flow.Optimal 4);
  match r.Flow.provenance with
  | [ a; b ] ->
    check Alcotest.bool "primary cancelled" true
      (a.Flow.stop = Some Types.Cancelled && a.Flow.stage = Flow.Engine_stage Types.Pbs2);
    check Alcotest.bool "galena proved" true
      (b.Flow.proved && b.Flow.stage = Flow.Engine_stage Types.Galena)
  | _ -> Alcotest.fail "expected exactly two attempts"

let test_chaos_conflict_cap_provenance () =
  (* starve the primary of conflicts instead of cancelling it: provenance
     must name the conflict cap, and the DSATUR rung still settles the
     instance (chi(queen5_5) = 5 > k = 4 means No_coloring) *)
  let g = queen5_5 () in
  let starve b = { b with Types.max_conflicts = Some 1 } in
  let tick = ref 0 in
  let instrument b =
    incr tick;
    if !tick = 1 then starve b else b
  in
  let cfg =
    Flow.config ~instance_dependent:false ~timeout:30.0 ~instrument ~k:4 ()
  in
  let r = Flow.run g cfg in
  check Alcotest.bool "fallback proves infeasibility" true
    (r.Flow.outcome = Flow.No_coloring);
  match r.Flow.provenance with
  | first :: _ ->
    check Alcotest.bool "conflict cap recorded" true
      (first.Flow.stop = Some Types.Conflict_limit)
  | [] -> Alcotest.fail "empty provenance"

let test_chaos_exact_coloring_provenance () =
  (* the one-call API surfaces the ladder's provenance and bound sources *)
  let g = queen5_5 () in
  let chaos = Chaos.scripted ~kill:[ 0 ] in
  let a =
    Exact.chromatic_number ~instance_dependent:false ~timeout:30.0
      ~instrument:(Chaos.instrument chaos) g
  in
  check (Alcotest.option Alcotest.int) "chi" (Some 5) a.Exact.chromatic;
  check Alcotest.string "lower source" "clique" a.Exact.lower_source;
  (* queen5_5's bounds meet, so no search happens and the heuristic answers;
     use a gap instance for ladder provenance instead *)
  let g' = Generators.mycielski 4 in
  let chaos' = Chaos.scripted ~kill:[ 0 ] in
  let a' =
    Exact.chromatic_number ~instance_dependent:false ~timeout:30.0
      ~instrument:(Chaos.instrument chaos') g'
  in
  check (Alcotest.option Alcotest.int) "myciel4 chi" (Some 5)
    a'.Exact.chromatic;
  check Alcotest.bool "ladder attempts recorded" true
    (List.length a'.Exact.attempts >= 2);
  check Alcotest.string "upper came from the DSATUR rung" "DSATUR B&B"
    a'.Exact.upper_source

(* ---------- the CLI contract: solve-opb certification ---------- *)

let test_decode_certify_roundtrip () =
  (* decoded flow results pass the solution-level certificate too *)
  let g = Generators.mycielski 3 in
  let a = Exact.chromatic_number ~timeout:30.0 g in
  match a.Exact.chromatic with
  | Some chi ->
    check Alcotest.bool "solution certificate" true
      (is_ok
         (Certify.solution g ~lower:a.Exact.lower ~upper:a.Exact.upper
            ~chromatic:(Some chi) a.Exact.coloring))
  | None -> Alcotest.fail "myciel3 must be solved exactly"

(* ---------- proof traces & the independent RUP checker ---------- *)

module Proof = Colib_sat.Proof
module Rup = Colib_check.Rup

let is_error = function Error _ -> true | Ok _ -> false
let verifies f claim steps = not (is_error (Rup.check_claim f claim steps))

(* Four width-2 clauses with no root units: refuting this formula needs one
   genuine RUP step (learn [~a]; the contradiction then follows by unit
   propagation), so every mutation below has a deterministic verdict. *)
let refutable_formula () =
  let f = Formula.create () in
  let a = Lit.pos (Formula.fresh_var f)
  and b = Lit.pos (Formula.fresh_var f)
  and c = Lit.pos (Formula.fresh_var f) in
  Formula.add_clause f [ Lit.negate a; b ];
  Formula.add_clause f [ Lit.negate a; Lit.negate b ];
  Formula.add_clause f [ a; c ];
  Formula.add_clause f [ a; Lit.negate c ];
  (f, a, b)

let test_proof_hand_written_accepted () =
  let f, a, _ = refutable_formula () in
  check Alcotest.bool "valid hand-written proof verifies" true
    (verifies f Proof.Unsat_claim
       [ Proof.Learn [ Lit.negate a ]; Proof.Contradiction ])

let test_proof_dropped_step_rejected () =
  let f, _, _ = refutable_formula () in
  (* dropping the load-bearing learn step leaves a bare contradiction claim
     that unit propagation cannot reproduce *)
  check Alcotest.bool "dropped step rejected" true
    (is_error (Rup.check_claim f Proof.Unsat_claim [ Proof.Contradiction ]))

let test_proof_reordered_rejected () =
  let f, a, _ = refutable_formula () in
  check Alcotest.bool "reordered steps rejected" true
    (is_error
       (Rup.check_claim f Proof.Unsat_claim
          [ Proof.Contradiction; Proof.Learn [ Lit.negate a ] ]))

let test_proof_non_rup_clause_rejected () =
  (* a satisfiable formula: no clause the checker cannot derive may enter *)
  let f = Formula.create () in
  let a = Lit.pos (Formula.fresh_var f)
  and b = Lit.pos (Formula.fresh_var f) in
  Formula.add_clause f [ a; b ];
  match
    Rup.check_claim f Proof.Unsat_claim
      [ Proof.Learn [ a ]; Proof.Contradiction ]
  with
  | Error (Rup.Not_rup 0) -> ()
  | Error fl ->
    Alcotest.failf "expected Not_rup 0, got %s" (Rup.failure_to_string fl)
  | Ok _ -> Alcotest.fail "non-RUP learn step must be rejected"

let test_proof_deletion_mutants_rejected () =
  let f, a, b = refutable_formula () in
  (* deleting a clause the later RUP step still needs *)
  (match
     Rup.check_claim f Proof.Unsat_claim
       [
         Proof.Delete [ Lit.negate a; b ];
         Proof.Learn [ Lit.negate a ];
         Proof.Contradiction;
       ]
   with
  | Error (Rup.Not_rup 1) -> ()
  | Error fl ->
    Alcotest.failf "expected Not_rup 1, got %s" (Rup.failure_to_string fl)
  | Ok _ -> Alcotest.fail "deletion of a needed clause must break the proof");
  (* deleting a clause that was never in the database *)
  match
    Rup.check_claim f Proof.Unsat_claim
      [ Proof.Delete [ a; b ]; Proof.Contradiction ]
  with
  | Error (Rup.Unknown_deletion 0) -> ()
  | Error fl ->
    Alcotest.failf "expected Unknown_deletion 0, got %s"
      (Rup.failure_to_string fl)
  | Ok _ -> Alcotest.fail "unknown deletion must be rejected"

(* ---------- checker edge cases, pinned step by step ---------- *)

(* A replay's verdict as one comparable string: how many steps it admitted
   and whether it reached a root contradiction, or why it stopped. *)
let replay f steps =
  match Rup.check f steps with
  | Ok v ->
    Printf.sprintf "ok %d%s" v.Rup.steps_checked
      (if v.Rup.contradiction then " contradiction" else "")
  | Error fl -> Rup.failure_to_string fl

let fresh_lits f n = List.init n (fun _ -> Lit.pos (Formula.fresh_var f))

(* A repeated literal is one more occurrence: the learned clause is checked
   as the set it denotes, it propagates inside a later RUP check, and a
   [Delete] of the set removes it with every occurrence. *)
let test_proof_duplicate_literal () =
  let f = Formula.create () in
  let x, y, z, w =
    match fresh_lits f 4 with
    | [ x; y; z; w ] -> (x, y, z, w)
    | _ -> assert false
  in
  Formula.add_clause f [ x; y; z ];
  Formula.add_clause f [ x; y; Lit.negate z ];
  Formula.add_clause f [ Lit.negate y; w ];
  Formula.add_clause f [ Lit.negate y; Lit.negate w ];
  check Alcotest.string "x alone is not RUP"
    "step 0 is not derivable by unit propagation"
    (replay f [ Proof.Learn [ x ] ]);
  check Alcotest.string "the duplicated clause makes x RUP" "ok 2"
    (replay f [ Proof.Learn [ x; x; y ]; Proof.Learn [ x ] ]);
  check Alcotest.string "a non-RUP duplicated clause is rejected"
    "step 0 is not derivable by unit propagation"
    (replay f [ Proof.Learn [ z; z ] ]);
  check Alcotest.string "deleting the set removes every occurrence"
    "step 2 is not derivable by unit propagation"
    (replay f
       [ Proof.Learn [ x; x; y ]; Proof.Delete [ y; x ]; Proof.Learn [ x ] ])

(* A tautology is trivially entailed; it joins the database, never
   propagates, and can be deleted again. *)
let test_proof_tautological_learn () =
  let f, a, b = refutable_formula () in
  let taut = [ b; Lit.negate b ] in
  check Alcotest.string "tautology admitted, refutation unchanged"
    "ok 3 contradiction"
    (replay f
       [ Proof.Learn taut; Proof.Learn [ Lit.negate a ]; Proof.Contradiction ]);
  check Alcotest.string "tautology deleted again" "ok 2"
    (replay f [ Proof.Learn taut; Proof.Delete (List.rev taut) ]);
  check Alcotest.string "a tautology never learned cannot be deleted"
    "step 0 deletes a clause that is not in the database"
    (replay f [ Proof.Delete taut ])

(* [a|b|c] and [a|b|~c] entail [a|b]; once both are deleted, [a|b] lives
   only as the learned copies the steps below add and remove. *)
let learned_copies_formula () =
  let f = Formula.create () in
  match fresh_lits f 4 with
  | [ a; b; c; d ] ->
    Formula.add_clause f [ a; b; c ];
    Formula.add_clause f [ a; b; Lit.negate c ];
    let drop_parents =
      [ Proof.Delete [ a; b; c ]; Proof.Delete [ a; b; Lit.negate c ] ]
    in
    (f, a, b, d, drop_parents)
  | _ -> assert false

let test_proof_learned_twice_deleted_once () =
  let f, a, b, d, drop_parents = learned_copies_formula () in
  let ab = [ a; b ] in
  let prefix =
    [ Proof.Learn ab; Proof.Learn ab ] @ drop_parents @ [ Proof.Delete ab ]
  in
  check Alcotest.string "the second copy stays live" "ok 7"
    (replay f
       (prefix
       @ [
           Proof.Learn [ a; b; d ];
           Proof.Eliminate { pivot = a; witness = [ ab ] };
         ]));
  check Alcotest.string "deleting the second copy removes the clause"
    "step 6 is not derivable by unit propagation"
    (replay f (prefix @ [ Proof.Delete ab; Proof.Learn [ a; b; d ] ]));
  check Alcotest.string "no third copy to delete"
    "step 6 deletes a clause that is not in the database"
    (replay f (prefix @ [ Proof.Delete ab; Proof.Delete ab ]))

let test_proof_deleted_then_relearned () =
  let f, a, b, d, drop_parents = learned_copies_formula () in
  let ab = [ a; b ] in
  let prefix =
    [ Proof.Learn ab; Proof.Delete ab; Proof.Learn ab ] @ drop_parents
  in
  check Alcotest.string "the re-learned clause is live" "ok 7"
    (replay f
       (prefix
       @ [
           Proof.Learn [ a; b; d ];
           Proof.Eliminate { pivot = b; witness = [ ab ] };
         ]));
  check Alcotest.string "the deleted copy does not count twice"
    "step 6 deletes a clause that is not in the database"
    (replay f (prefix @ [ Proof.Delete ab; Proof.Delete ab ]))

(* drat-trim convention: deleting a clause does not retract the root
   assignments it already forced *)
let test_proof_deleted_unit_stays () =
  let f = Formula.create () in
  match fresh_lits f 3 with
  | [ a; b; c ] ->
    Formula.add_clause f [ Lit.negate a; b ];
    Formula.add_clause f [ Lit.negate a; Lit.negate b ];
    Formula.add_clause f [ a; c ];
    let drop_parents =
      [
        Proof.Delete [ Lit.negate a; b ];
        Proof.Delete [ Lit.negate a; Lit.negate b ];
      ]
    in
    check Alcotest.string "the forced units outlive the unit clause" "ok 5"
      (replay f
         ((Proof.Learn [ Lit.negate a ] :: Proof.Delete [ Lit.negate a ]
          :: drop_parents)
         @ [ Proof.Learn [ c ] ]));
    check Alcotest.string "without the unit, c is not RUP"
      "step 2 is not derivable by unit propagation"
      (replay f (drop_parents @ [ Proof.Learn [ c ] ]))
  | _ -> assert false

(* ---------- inprocessing proof steps and their mutants ---------- *)

(* A formula shaped like what the inprocessing ladder emits proof steps
   for: [~a|b] and [a|~b] entail the equivalence a <-> b (a [Substitute]
   step), while [p|x] and [~p|x] resolve on [p] to [x] (a [Learn]ed
   resolvent followed by an [Eliminate] marker whose witness is the
   positive side [p|x]). *)
let inproc_formula () =
  let f = Formula.create () in
  let a = Lit.pos (Formula.fresh_var f)
  and b = Lit.pos (Formula.fresh_var f)
  and p = Lit.pos (Formula.fresh_var f)
  and x = Lit.pos (Formula.fresh_var f) in
  Formula.add_clause f [ Lit.negate a; b ];
  Formula.add_clause f [ a; Lit.negate b ];
  Formula.add_clause f [ p; x ];
  Formula.add_clause f [ Lit.negate p; x ];
  (f, a, b, p, x)

let test_proof_substitute_mutants () =
  let f, a, b, _, _ = inproc_formula () in
  (* the entailed equivalence is accepted *)
  (match Rup.check f [ Proof.Substitute [ (a, b) ] ] with
  | Ok _ -> ()
  | Error fl ->
    Alcotest.failf "entailed substitution rejected: %s"
      (Rup.failure_to_string fl));
  (* tampered map: a <-> ~b is not entailed by this formula *)
  (match Rup.check f [ Proof.Substitute [ (a, Lit.negate b) ] ] with
  | Error (Rup.Bad_substitution (0, _)) -> ()
  | Error fl ->
    Alcotest.failf "expected Bad_substitution 0, got %s"
      (Rup.failure_to_string fl)
  | Ok _ -> Alcotest.fail "non-entailed substitution must be rejected");
  (* degenerate maps *)
  (match Rup.check f [ Proof.Substitute [] ] with
  | Error (Rup.Bad_substitution (0, _)) -> ()
  | _ -> Alcotest.fail "empty substitution must be rejected");
  match Rup.check f [ Proof.Substitute [ (a, Lit.negate a) ] ] with
  | Error (Rup.Bad_substitution (0, _)) -> ()
  | _ -> Alcotest.fail "self-variable substitution must be rejected"

let test_proof_eliminate_mutants () =
  let f, _, _, p, x = inproc_formula () in
  (* the honest trace: resolvent learned while both parents are live,
     then the structural elimination marker *)
  (match
     Rup.check f
       [ Proof.Learn [ x ]; Proof.Eliminate { pivot = p; witness = [ [ p; x ] ] } ]
   with
  | Ok _ -> ()
  | Error fl ->
    Alcotest.failf "honest elimination trace rejected: %s"
      (Rup.failure_to_string fl));
  let expect_bad_witness label steps =
    match Rup.check f steps with
    | Error (Rup.Bad_witness (1, _)) -> ()
    | Error fl ->
      Alcotest.failf "%s: expected Bad_witness 1, got %s" label
        (Rup.failure_to_string fl)
    | Ok _ -> Alcotest.failf "%s must be rejected" label
  in
  (* dropped witness *)
  expect_bad_witness "emptied witness"
    [ Proof.Learn [ x ]; Proof.Eliminate { pivot = p; witness = [] } ];
  (* witness clause missing its pivot ([x] is live — it was just learned —
     so only the pivot check can reject it) *)
  expect_bad_witness "pivot-free witness clause"
    [ Proof.Learn [ x ]; Proof.Eliminate { pivot = p; witness = [ [ x ] ] } ];
  (* witness naming a clause that is not live in the database *)
  expect_bad_witness "phantom witness clause"
    [
      Proof.Learn [ x ];
      Proof.Eliminate { pivot = p; witness = [ [ p; Lit.negate x ] ] };
    ]

let test_proof_inproc_deletion_mutant () =
  let f, _, _, p, x = inproc_formula () in
  (* deleting one parent before the resolvent is learned: the [Learn [x]]
     the elimination depends on is no longer RUP *)
  match
    Rup.check f
      [
        Proof.Delete [ p; x ];
        Proof.Learn [ x ];
        Proof.Eliminate { pivot = p; witness = [ [ Lit.negate p; x ] ] };
      ]
  with
  | Error (Rup.Not_rup 1) -> ()
  | Error fl ->
    Alcotest.failf "expected Not_rup 1, got %s" (Rup.failure_to_string fl)
  | Ok _ ->
    Alcotest.fail "deleting a resolvent parent must break the elimination"

(* ---------- BVE witness reconstruction (property) ---------- *)

module Simplify = Colib_sat.Simplify

(* Random clause lists with every variable unfrozen drive the simplifier
   into real eliminations and substitutions. The contract under test is
   {!Simplify.extend_model}: every model of what survives the run must
   extend, through the recorded witness stack, to a model of the original
   formula — checked by {!Certify.model} against an independently built
   copy. UNSAT verdicts are cross-checked against the full 2^n sweep. *)
let prop_extend_model =
  QCheck.Test.make ~name:"extend_model completes models of the original"
    ~count:300
    (QCheck.make
       ~print:(fun (nv, cls) ->
         Printf.sprintf "%d vars %s" nv
           (String.concat " "
              (List.map
                 (fun c ->
                   "[" ^ String.concat "," (List.map string_of_int c) ^ "]")
                 cls)))
       QCheck.Gen.(
         let* nv = int_range 3 7 in
         let* ncl = int_range 1 (3 * nv) in
         let* raw =
           list_repeat ncl
             (let* w = int_range 2 3 in
              list_repeat w (int_range 0 ((2 * nv) - 1)))
         in
         (* the engine hands the simplifier normalized clauses: sorted,
            duplicate-free, non-tautological, width >= 2 *)
         let cls =
           List.filter_map
             (fun c ->
               let c = List.sort_uniq compare c in
               if List.exists (fun l -> List.mem (l lxor 1) c) c then None
               else if List.length c < 2 then None
               else Some c)
             raw
         in
         return (nv, cls)))
    (fun (nv, cls) ->
      let f = Formula.create () in
      ignore (Formula.fresh_vars f nv);
      List.iter
        (fun c -> Formula.add_clause f (List.map Lit.of_index c))
        cls;
      let clauses =
        List.map
          (fun c ->
            {
              Simplify.sc_lits = Array.of_list c;
              sc_learnt = false;
              sc_act = 0.0;
              sc_pinned = false;
            })
          cls
      in
      let r =
        Simplify.run ~nvars:nv ~frozen:(Array.make nv false)
          ~assigned:(Array.make nv (-1))
          clauses
      in
      let sat_lit m l = if l land 1 = 0 then m.(l lsr 1) else not m.(l lsr 1) in
      let simplified_sat m =
        List.for_all (fun u -> sat_lit m u) r.Simplify.r_units
        && List.for_all
             (fun c -> Array.exists (sat_lit m) c.Simplify.sc_lits)
             r.Simplify.r_clauses
      in
      let orig_models = ref 0 in
      for mask = 0 to (1 lsl nv) - 1 do
        let m = Array.init nv (fun v -> (mask lsr v) land 1 = 1) in
        if is_ok (Certify.model f m) then incr orig_models;
        if (not r.Simplify.r_unsat) && simplified_sat m then begin
          (* the reconstruction under test *)
          Simplify.extend_model r.Simplify.r_elim m;
          match Certify.model f m with
          | Ok () -> ()
          | Error fl ->
            QCheck.Test.fail_reportf
              "extended model violates the original formula: %s"
              (Certify.failure_to_string fl)
        end
      done;
      if r.Simplify.r_unsat && !orig_models > 0 then
        QCheck.Test.fail_reportf
          "simplifier claims UNSAT but the original has %d models"
          !orig_models;
      (* completeness of the survivor set: a satisfiable original must
         leave at least one simplified model (otherwise the run silently
         lost solutions) *)
      if (not r.Simplify.r_unsat) && !orig_models > 0 then begin
        let found = ref false in
        for mask = 0 to (1 lsl nv) - 1 do
          let m = Array.init nv (fun v -> (mask lsr v) land 1 = 1) in
          if simplified_sat m then found := true
        done;
        if not !found then
          QCheck.Test.fail_reportf
            "satisfiable original but the simplified formula has no model"
      end;
      true)

(* engine-generated refutation: K4 is not 3-colorable *)
let engine_unsat_proof () =
  let enc = Encoding.encode (Generators.complete 4) ~k:3 in
  let f = enc.Encoding.formula in
  let p = Proof.create () in
  match
    Optimize.solve_formula ~proof:p Types.Pbs2 f (Types.within_seconds 30.0)
  with
  | Optimize.Unsatisfiable -> (f, Proof.steps p)
  | _ -> Alcotest.fail "K4 at k=3 must be unsatisfiable"

let test_engine_proof_roundtrip_and_mutants () =
  let f, steps = engine_unsat_proof () in
  check Alcotest.bool "engine refutation verifies" true
    (verifies f Proof.Unsat_claim steps);
  (* root unit propagation alone must not refute this instance — otherwise
     the mutations below would be vacuous *)
  (match Rup.check f [] with
  | Ok v -> check Alcotest.bool "instance needs real proof steps" false
              v.Rup.contradiction
  | Error _ -> Alcotest.fail "empty step list cannot fail");
  (* strip every learned clause: the bare contradiction is no longer RUP *)
  let no_learns =
    List.filter (function Proof.Learn _ -> false | _ -> true) steps
  in
  check Alcotest.bool "learn-free engine proof rejected" true
    (is_error (Rup.check_claim f Proof.Unsat_claim no_learns));
  (* an engine UNSAT proof exhibits no model *)
  check Alcotest.bool "optimality claim on a refutation rejected" true
    (is_error (Rup.check_claim f (Proof.Optimal_claim 3) steps))

let test_optimality_proof_and_claim_mutants () =
  (* C5 needs 3 colors; the encoding minimizes the colors-used count *)
  let enc = Encoding.encode (Generators.cycle 5) ~k:4 in
  let f = enc.Encoding.formula in
  let p = Proof.create () in
  (match
     Optimize.solve_formula ~proof:p Types.Galena f (Types.within_seconds 30.0)
   with
  | Optimize.Optimal (_, c) -> check Alcotest.int "C5 optimum" 3 c
  | _ -> Alcotest.fail "C5 at k=4 must be solved to optimality");
  let steps = Proof.steps p in
  check Alcotest.bool "optimality proof verifies" true
    (verifies f (Proof.Optimal_claim 3) steps);
  (* claiming a better optimum than the models prove *)
  (match Rup.check_claim f (Proof.Optimal_claim 2) steps with
  | Error (Rup.Cost_mismatch { claimed = 2; proved = Some 3 }) -> ()
  | Error fl ->
    Alcotest.failf "expected Cost_mismatch, got %s" (Rup.failure_to_string fl)
  | Ok _ -> Alcotest.fail "understated optimum must be rejected");
  (* claiming unsatisfiability of an instance the proof itself models *)
  match Rup.check_claim f Proof.Unsat_claim steps with
  | Error Rup.Unexpected_model -> ()
  | Error fl ->
    Alcotest.failf "expected Unexpected_model, got %s"
      (Rup.failure_to_string fl)
  | Ok _ -> Alcotest.fail "unsat claim over an improving model must be \
                           rejected"

let test_proof_file_roundtrip () =
  let f, steps = engine_unsat_proof () in
  let t = Proof.create () in
  List.iter (Proof.add t) steps;
  let path = Filename.temp_file "colib_proof" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Proof.write_file path ~formula:f ~claim:Proof.Unsat_claim t;
      let parsed = Proof.read_file path in
      match (parsed.Proof.p_formula, parsed.Proof.p_claim) with
      | Some f', Some claim ->
        check Alcotest.bool "parsed claim is unsat" true
          (claim = Proof.Unsat_claim);
        check Alcotest.bool "reparsed proof verifies against reparsed formula"
          true
          (verifies f' claim parsed.Proof.p_steps)
      | _ -> Alcotest.fail "roundtrip lost the formula or the claim")

(* a malformed proof file is a [Failure] the CLI turns into exit 2, never
   another exception *)
let test_proof_text_malformed () =
  List.iter
    (fun line ->
      check Alcotest.bool ("rejects " ^ String.escaped line) true
        (match Proof.of_string ("s unsat\n" ^ line ^ "\n") with
        | _ -> false
        | exception Failure _ -> true))
    [
      "l 1 2";
      "l 1 0 2 0";
      "l 1 x 0";
      "x 1 0";
      "v 0 0";
      "v 1 2 1 0";
      "m";
      "u 1";
      "q 1 0";
    ]

let () =
  Alcotest.run "check"
    [
      ( "certify",
        [
          Alcotest.test_case "coloring accepted" `Quick
            test_certify_coloring_accepts;
          Alcotest.test_case "coloring mutants rejected" `Quick
            test_certify_coloring_rejects_mutants;
          Alcotest.test_case "bounds and cliques" `Quick
            test_certify_bounds_and_clique;
          Alcotest.test_case "model certificates" `Quick test_certify_model;
          Alcotest.test_case "solution roundtrip" `Quick
            test_decode_certify_roundtrip;
        ] );
      ( "sbp-oracle",
        [
          Alcotest.test_case "every SBP preserves the optimum" `Slow
            test_sbp_preserves_optimum;
          Alcotest.test_case "stack = brute on fixed graphs" `Slow
            test_stack_agrees_fixed;
          qtest prop_stack_agrees_random;
        ] );
      ( "proof",
        [
          Alcotest.test_case "hand-written proof accepted" `Quick
            test_proof_hand_written_accepted;
          Alcotest.test_case "dropped step rejected" `Quick
            test_proof_dropped_step_rejected;
          Alcotest.test_case "reordered steps rejected" `Quick
            test_proof_reordered_rejected;
          Alcotest.test_case "non-RUP clause rejected" `Quick
            test_proof_non_rup_clause_rejected;
          Alcotest.test_case "deletion mutants rejected" `Quick
            test_proof_deletion_mutants_rejected;
          Alcotest.test_case "duplicate literal in a learn" `Quick
            test_proof_duplicate_literal;
          Alcotest.test_case "tautological learn" `Quick
            test_proof_tautological_learn;
          Alcotest.test_case "learned twice, deleted once" `Quick
            test_proof_learned_twice_deleted_once;
          Alcotest.test_case "deleted, then re-learned" `Quick
            test_proof_deleted_then_relearned;
          Alcotest.test_case "deleted unit stays" `Quick
            test_proof_deleted_unit_stays;
          Alcotest.test_case "substitute step mutants rejected" `Quick
            test_proof_substitute_mutants;
          Alcotest.test_case "eliminate step mutants rejected" `Quick
            test_proof_eliminate_mutants;
          Alcotest.test_case "inprocessing deletion mutant rejected" `Quick
            test_proof_inproc_deletion_mutant;
          qtest prop_extend_model;
          Alcotest.test_case "engine refutation roundtrip + mutants" `Quick
            test_engine_proof_roundtrip_and_mutants;
          Alcotest.test_case "optimality proof + claim mutants" `Quick
            test_optimality_proof_and_claim_mutants;
          Alcotest.test_case "proof file roundtrip" `Quick
            test_proof_file_roundtrip;
          Alcotest.test_case "malformed proof text rejected" `Quick
            test_proof_text_malformed;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "primary killed, fallback proves" `Quick
            test_chaos_primary_killed_fallback_proves;
          Alcotest.test_case "two rungs killed, heuristic answers" `Quick
            test_chaos_two_stages_killed_degrades_to_heuristic;
          Alcotest.test_case "all rungs killed, never Optimal" `Quick
            test_chaos_all_killed_never_claims_optimal;
          Alcotest.test_case "engine fallback chain" `Quick
            test_chaos_engine_fallback_chain;
          Alcotest.test_case "conflict-cap provenance" `Quick
            test_chaos_conflict_cap_provenance;
          Alcotest.test_case "exact-coloring provenance" `Quick
            test_chaos_exact_coloring_provenance;
        ] );
    ]
