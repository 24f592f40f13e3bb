(* Tests for the CNF/PB formula substrate: literals, clauses, normalized PB
   constraints, formulas, and the DIMACS/OPB emitters. *)

module Lit = Colib_sat.Lit
module Clause = Colib_sat.Clause
module Pbc = Colib_sat.Pbc
module Formula = Colib_sat.Formula
module Output = Colib_sat.Output

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------- literals ---------- *)

let test_lit_roundtrip () =
  for v = 0 to 20 do
    let p = Lit.pos v and n = Lit.neg v in
    check Alcotest.int "var pos" v (Lit.var p);
    check Alcotest.int "var neg" v (Lit.var n);
    check Alcotest.bool "sign pos" true (Lit.sign p);
    check Alcotest.bool "sign neg" false (Lit.sign n);
    check Alcotest.bool "negate" true (Lit.equal (Lit.negate p) n);
    check Alcotest.bool "negate2" true (Lit.equal (Lit.negate n) p);
    check Alcotest.int "dimacs pos" (v + 1) (Lit.to_dimacs p);
    check Alcotest.int "dimacs neg" (-(v + 1)) (Lit.to_dimacs n);
    check Alcotest.bool "dimacs rt" true
      (Lit.equal p (Lit.of_dimacs (Lit.to_dimacs p)));
    check Alcotest.bool "index rt" true
      (Lit.equal n (Lit.of_index (Lit.to_index n)))
  done

let lit_gen = QCheck.Gen.(map (fun i -> Lit.of_index i) (int_bound 199))
let lit_arb = QCheck.make ~print:(fun l -> Format.asprintf "%a" Lit.pp l) lit_gen

let prop_negate_involution =
  QCheck.Test.make ~name:"negate involutive" ~count:200 lit_arb (fun l ->
      Lit.equal l (Lit.negate (Lit.negate l)))

let prop_negate_flips_sign =
  QCheck.Test.make ~name:"negate flips sign" ~count:200 lit_arb (fun l ->
      Lit.sign l <> Lit.sign (Lit.negate l) && Lit.var l = Lit.var (Lit.negate l))

(* ---------- clauses ---------- *)

let test_clause_normalization () =
  (match Clause.make [ Lit.pos 1; Lit.pos 0; Lit.pos 1 ] with
  | Clause.Clause c ->
    check Alcotest.int "dedup" 2 (Clause.length c);
    check Alcotest.bool "sorted" true (Clause.mem (Lit.pos 0) c)
  | _ -> Alcotest.fail "expected clause");
  (match Clause.make [ Lit.pos 0; Lit.neg 0 ] with
  | Clause.Tautology -> ()
  | _ -> Alcotest.fail "expected tautology");
  match Clause.make [] with
  | Clause.Empty -> ()
  | _ -> Alcotest.fail "expected empty"

let test_clause_tautology_mixed () =
  match Clause.make [ Lit.pos 3; Lit.pos 1; Lit.neg 3; Lit.pos 2 ] with
  | Clause.Tautology -> ()
  | _ -> Alcotest.fail "tautology not detected"

(* ---------- PB constraints ---------- *)

let test_pb_ge_basic () =
  match Pbc.make_ge [ (1, Lit.pos 0); (2, Lit.pos 1) ] 2 with
  | Pbc.Pb c ->
    check Alcotest.int "bound" 2 c.Pbc.bound;
    check Alcotest.int "arity" 2 (Array.length c.Pbc.lits)
  | _ -> Alcotest.fail "expected Pb"

let test_pb_trivial_true () =
  (match Pbc.make_ge [ (1, Lit.pos 0) ] 0 with
  | Pbc.True -> ()
  | _ -> Alcotest.fail "bound 0 should be trivially true");
  match Pbc.make_ge [ (3, Lit.pos 0) ] (-1) with
  | Pbc.True -> ()
  | _ -> Alcotest.fail "negative bound should be trivially true"

let test_pb_trivial_false () =
  match Pbc.make_ge [ (1, Lit.pos 0); (1, Lit.pos 1) ] 3 with
  | Pbc.False -> ()
  | _ -> Alcotest.fail "unreachable bound should be false"

let test_pb_becomes_clause () =
  match Pbc.make_ge [ (5, Lit.pos 0); (7, Lit.neg 1) ] 5 with
  | Pbc.Clause lits -> check Alcotest.int "clause size" 2 (List.length lits)
  | _ -> Alcotest.fail "saturation should give a clause"

let test_pb_negative_coef () =
  (* x0 - x1 >= 0  <=>  x0 + ~x1 >= 1: a clause *)
  match Pbc.make_ge [ (1, Lit.pos 0); (-1, Lit.pos 1) ] 0 with
  | Pbc.Clause lits ->
    check Alcotest.bool "contains x0" true (List.mem (Lit.pos 0) lits);
    check Alcotest.bool "contains ~x1" true (List.mem (Lit.neg 1) lits)
  | _ -> Alcotest.fail "expected clause from x0 - x1 >= 0"

let test_pb_le () =
  (* x0 + x1 <= 1  <=>  ~x0 + ~x1 >= 1 *)
  match Pbc.make_le [ (1, Lit.pos 0); (1, Lit.pos 1) ] 1 with
  | Pbc.Clause lits ->
    check Alcotest.bool "negated" true
      (List.for_all (fun l -> not (Lit.sign l)) lits)
  | _ -> Alcotest.fail "expected clause"

let test_pb_merge_duplicate () =
  (* x0 + x0 >= 2 should merge to 2*x0 >= 2, i.e. unit clause x0 *)
  match Pbc.make_ge [ (1, Lit.pos 0); (1, Lit.pos 0) ] 2 with
  | Pbc.Clause [ l ] -> check Alcotest.bool "unit x0" true (Lit.equal l (Lit.pos 0))
  | _ -> Alcotest.fail "expected unit clause"

let test_pb_opposite_literals () =
  (* x0 + ~x0 >= 1 is trivially true *)
  match Pbc.make_ge [ (1, Lit.pos 0); (1, Lit.neg 0) ] 1 with
  | Pbc.True -> ()
  | _ -> Alcotest.fail "x + ~x >= 1 should be trivially true"

(* semantics: normalized constraint must agree with direct evaluation *)
let terms_gen =
  QCheck.Gen.(
    list_size (int_range 1 6)
      (pair (int_range (-3) 3) (map Lit.of_index (int_bound 9))))

let terms_print ts =
  String.concat " + "
    (List.map (fun (c, l) -> Format.asprintf "%d*%a" c Lit.pp l) ts)

let eval_ge terms bound assignment =
  let v l = if Lit.sign l then assignment.(Lit.var l) else not assignment.(Lit.var l) in
  List.fold_left (fun s (c, l) -> if v l then s + c else s) 0 terms >= bound

let prop_pb_normalization_semantics =
  QCheck.Test.make ~name:"PB normalization preserves semantics" ~count:500
    (QCheck.make ~print:(fun (ts, b, _) -> terms_print ts ^ " >= " ^ string_of_int b)
       QCheck.Gen.(triple terms_gen (int_range (-5) 8) (array_size (return 5) bool)))
    (fun (terms, bound, assignment) ->
      let direct = eval_ge terms bound assignment in
      let v l =
        if Lit.sign l then assignment.(Lit.var l) else not assignment.(Lit.var l)
      in
      match Pbc.make_ge terms bound with
      | Pbc.True -> direct
      | Pbc.False -> not direct
      | Pbc.Clause lits -> List.exists v lits = direct
      | Pbc.Pb c -> Pbc.satisfied_by v c = direct)

(* ---------- formulas ---------- *)

let test_formula_counting () =
  let f = Formula.create () in
  let xs = Formula.fresh_vars ~prefix:"v" f 4 in
  Formula.add_clause f [ Lit.pos xs.(0); Lit.pos xs.(1) ];
  Formula.add_clause f [ Lit.neg xs.(2) ];
  Formula.add_exactly_one f (Array.to_list (Array.map Lit.pos xs));
  let st = Formula.stats f in
  check Alcotest.int "vars" 4 st.Formula.vars;
  (* exactly-one adds: >=1 clause + at-most-one PB *)
  check Alcotest.int "clauses" 3 st.Formula.cnf_clauses;
  check Alcotest.int "pbs" 1 st.Formula.pb_constraints

let test_formula_tautology_dropped () =
  let f = Formula.create () in
  let v = Formula.fresh_var f in
  Formula.add_clause f [ Lit.pos v; Lit.neg v ];
  check Alcotest.int "tautology dropped" 0 (Formula.num_clauses f)

let test_formula_empty_clause_unsat () =
  let f = Formula.create () in
  Formula.add_clause f [];
  check Alcotest.bool "unsat" true (Formula.trivially_unsat f)

let test_formula_check_model () =
  let f = Formula.create () in
  let a = Formula.fresh_var f and b = Formula.fresh_var f in
  Formula.add_clause f [ Lit.pos a; Lit.pos b ];
  Formula.add_pb_le f [ (1, Lit.pos a); (1, Lit.pos b) ] 1;
  let value model l = if Lit.sign l then model.(Lit.var l) else not model.(Lit.var l) in
  check Alcotest.bool "10 ok" true (Formula.check_model f (value [| true; false |]));
  check Alcotest.bool "11 violates PB" false
    (Formula.check_model f (value [| true; true |]));
  check Alcotest.bool "00 violates clause" false
    (Formula.check_model f (value [| false; false |]))

let test_formula_objective () =
  let f = Formula.create () in
  let xs = Formula.fresh_vars f 3 in
  Formula.set_objective_min f
    (List.map (fun v -> (1, Lit.pos v)) (Array.to_list xs));
  let value model l = if Lit.sign l then model.(Lit.var l) else not model.(Lit.var l) in
  check Alcotest.int "cost" 2
    (Formula.objective_value f (value [| true; false; true |]));
  check Alcotest.bool "double objective rejected" true
    (try
       Formula.set_objective_min f [];
       false
     with Invalid_argument _ -> true)

let test_formula_unallocated_var_rejected () =
  let f = Formula.create () in
  let _ = Formula.fresh_var f in
  check Alcotest.bool "rejects" true
    (try
       Formula.add_clause f [ Lit.pos 5 ];
       false
     with Invalid_argument _ -> true)

let test_formula_names () =
  let f = Formula.create () in
  let a = Formula.fresh_var ~name:"alpha" f in
  let b = Formula.fresh_var f in
  check Alcotest.string "named" "alpha" (Formula.name_of_var f a);
  check Alcotest.string "default" "x2" (Formula.name_of_var f b);
  let vs = Formula.fresh_vars ~prefix:"p" f 2 in
  check Alcotest.string "prefixed" "p1" (Formula.name_of_var f vs.(1))

let test_cardinality_helpers () =
  let lits = [ Lit.pos 0; Lit.pos 1; Lit.pos 2 ] in
  (match Pbc.at_least 2 lits with
  | Pbc.Pb c ->
    check Alcotest.int "bound" 2 c.Pbc.bound;
    check Alcotest.bool "cardinality" true (Pbc.is_cardinality c);
    check Alcotest.int "slack" 1 (Pbc.slack_full c)
  | _ -> Alcotest.fail "expected Pb");
  (match Pbc.at_most 2 lits with
  | Pbc.Clause negs ->
    (* at most 2 of 3 = at least 1 negation: a clause *)
    check Alcotest.int "3 negs" 3 (List.length negs)
  | _ -> Alcotest.fail "expected clause");
  match Pbc.at_least 0 lits with
  | Pbc.True -> ()
  | _ -> Alcotest.fail "at_least 0 is trivial"

(* ---------- output ---------- *)

let test_dimacs_cnf_roundtrip () =
  let f = Formula.create () in
  let xs = Formula.fresh_vars f 4 in
  Formula.add_clause f [ Lit.pos xs.(0); Lit.neg xs.(1) ];
  Formula.add_clause f [ Lit.pos xs.(2); Lit.pos xs.(3); Lit.neg xs.(0) ];
  let text = Output.dimacs_cnf_string f in
  let f' = Output.parse_dimacs_cnf text in
  check Alcotest.int "vars" (Formula.num_vars f) (Formula.num_vars f');
  check Alcotest.int "clauses" (Formula.num_clauses f) (Formula.num_clauses f');
  let text' = Output.dimacs_cnf_string f' in
  check Alcotest.string "fixpoint" text text'

let test_dimacs_rejects_pb () =
  let f = Formula.create () in
  let xs = Formula.fresh_vars f 3 in
  Formula.add_pb_ge f (List.map (fun v -> (1, Lit.pos v)) (Array.to_list xs)) 2;
  check Alcotest.bool "rejects PB" true
    (try
       ignore (Output.dimacs_cnf_string f);
       false
     with Invalid_argument _ -> true)

let test_opb_output () =
  let f = Formula.create () in
  let xs = Formula.fresh_vars f 2 in
  Formula.add_clause f [ Lit.pos xs.(0); Lit.neg xs.(1) ];
  Formula.add_pb_ge f [ (2, Lit.pos xs.(0)); (1, Lit.pos xs.(1)) ] 2;
  Formula.set_objective_min f [ (1, Lit.pos xs.(0)) ];
  let text = Output.opb_string f in
  let contains_sub hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "has min line" true (contains_sub text "min:");
  check Alcotest.bool "has constraint" true (contains_sub text ">= 2")

(* The writer's bytes are pinned: checkpoint, cube and session digests hash
   [opb_string], so any change to its output invalidates stored state. *)
let test_opb_golden () =
  let f = Formula.create () in
  let xs = Formula.fresh_vars f 4 in
  Formula.add_clause f [ Lit.pos xs.(0); Lit.neg xs.(1); Lit.pos xs.(3) ];
  Formula.add_clause f [ Lit.neg xs.(2) ];
  Formula.add_pb_ge f
    [ (3, Lit.pos xs.(0)); (2, Lit.neg xs.(2)); (1, Lit.pos xs.(3)) ]
    4;
  Formula.set_objective_min f
    [ (2, Lit.pos xs.(1)); (1, Lit.neg xs.(3)); (-1, Lit.pos xs.(2)) ];
  let golden =
    "* #variable= 4 #constraint= 3\n\
     min: +2 x2 +1 ~x4 -1 x3 ;\n\
     +1 x1 +1 ~x2 +1 x4 >= 1 ;\n\
     +1 ~x3 >= 1 ;\n\
     +3 x1 +2 ~x3 +1 x4 >= 4 ;\n"
  in
  check Alcotest.string "pinned text" golden (Output.opb_string f);
  check Alcotest.string "reparsed text prints the same" golden
    (Output.opb_string (Output.parse_opb golden));
  let g =
    Lazy.force
      (Colib_graph.Benchmarks.find "queen5_5").Colib_graph.Benchmarks.graph
  in
  let enc = Colib_encode.Encoding.encode g ~k:20 in
  Colib_encode.Sbp.add Colib_encode.Sbp.Sc enc;
  let text = Output.opb_string enc.Colib_encode.Encoding.formula in
  check Alcotest.string "queen5_5 K=20 SC digest"
    "4e0cbbecb4ca6456cdcaaee7dc5d679d"
    (Digest.to_hex (Digest.string text));
  check Alcotest.bool "queen5_5 reparsed prints the same" true
    (Output.opb_string (Output.parse_opb text) = text)

let test_opb_roundtrip () =
  let f = Formula.create () in
  let xs = Formula.fresh_vars f 4 in
  Formula.add_clause f [ Lit.pos xs.(0); Lit.neg xs.(1) ];
  Formula.add_pb_ge f
    [ (2, Lit.pos xs.(0)); (1, Lit.pos xs.(2)); (3, Lit.neg xs.(3)) ]
    3;
  Formula.set_objective_min f
    [ (1, Lit.pos xs.(2)); (2, Lit.pos xs.(3)) ];
  let f' = Output.parse_opb (Output.opb_string f) in
  check Alcotest.int "vars" (Formula.num_vars f) (Formula.num_vars f');
  check Alcotest.int "clauses" (Formula.num_clauses f) (Formula.num_clauses f');
  check Alcotest.int "pbs" (Formula.num_pbs f) (Formula.num_pbs f');
  check Alcotest.bool "objective survives" true (Formula.objective f' <> None);
  (* semantic equivalence over all 16 assignments *)
  for a = 0 to 15 do
    let value l =
      let b = a land (1 lsl Lit.var l) <> 0 in
      if Lit.sign l then b else not b
    in
    check Alcotest.bool "same models" (Formula.check_model f value)
      (Formula.check_model f' value);
    check Alcotest.int "same cost" (Formula.objective_value f value)
      (Formula.objective_value f' value)
  done

let test_opb_parse_relations () =
  let f = Output.parse_opb "* a comment\n+1 x1 +1 x2 = 1 ;\n+1 x1 <= 0 ;\n" in
  (* x1 + x2 = 1 splits into >=1 clause and at-most-one; x1 <= 0 is the unit
     clause ~x1 *)
  check Alcotest.bool "parses" true (Formula.num_vars f = 2);
  let value model l =
    if Lit.sign l then model.(Lit.var l) else not model.(Lit.var l)
  in
  check Alcotest.bool "01 ok" true (Formula.check_model f (value [| false; true |]));
  check Alcotest.bool "10 violates x1<=0" false
    (Formula.check_model f (value [| true; false |]));
  check Alcotest.bool "00 violates =1" false
    (Formula.check_model f (value [| false; false |]))

let test_opb_malformed () =
  List.iter
    (fun text ->
      check Alcotest.bool ("rejects " ^ text) true
        (try
           ignore (Output.parse_opb text);
           false
         with Failure _ -> true))
    [ "+1 y1 >= 1 ;"; "+1 x1 >= ;"; "x1 >= 1 ;"; "+1 x1 +2 >= 1 ;" ]

let test_parse_malformed () =
  List.iter
    (fun text ->
      check Alcotest.bool ("rejects " ^ text) true
        (try
           ignore (Output.parse_dimacs_cnf text);
           false
         with Failure _ -> true))
    [ "1 2 0\n"; "p cnf x y\n"; "p cnf 2 1\n1 2\n"; "p cnf 2 1\n1 banana 0\n" ]

let () =
  Alcotest.run "sat"
    [
      ( "lit",
        [
          Alcotest.test_case "roundtrips" `Quick test_lit_roundtrip;
          qtest prop_negate_involution;
          qtest prop_negate_flips_sign;
        ] );
      ( "clause",
        [
          Alcotest.test_case "normalization" `Quick test_clause_normalization;
          Alcotest.test_case "tautology mixed" `Quick test_clause_tautology_mixed;
        ] );
      ( "pbc",
        [
          Alcotest.test_case "ge basic" `Quick test_pb_ge_basic;
          Alcotest.test_case "trivially true" `Quick test_pb_trivial_true;
          Alcotest.test_case "trivially false" `Quick test_pb_trivial_false;
          Alcotest.test_case "becomes clause" `Quick test_pb_becomes_clause;
          Alcotest.test_case "negative coef" `Quick test_pb_negative_coef;
          Alcotest.test_case "le" `Quick test_pb_le;
          Alcotest.test_case "merge duplicates" `Quick test_pb_merge_duplicate;
          Alcotest.test_case "opposite literals" `Quick test_pb_opposite_literals;
          qtest prop_pb_normalization_semantics;
        ] );
      ( "formula",
        [
          Alcotest.test_case "counting" `Quick test_formula_counting;
          Alcotest.test_case "tautology dropped" `Quick test_formula_tautology_dropped;
          Alcotest.test_case "empty clause" `Quick test_formula_empty_clause_unsat;
          Alcotest.test_case "check_model" `Quick test_formula_check_model;
          Alcotest.test_case "objective" `Quick test_formula_objective;
          Alcotest.test_case "unallocated var" `Quick test_formula_unallocated_var_rejected;
          Alcotest.test_case "names" `Quick test_formula_names;
          Alcotest.test_case "cardinality helpers" `Quick test_cardinality_helpers;
        ] );
      ( "output",
        [
          Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_cnf_roundtrip;
          Alcotest.test_case "dimacs rejects PB" `Quick test_dimacs_rejects_pb;
          Alcotest.test_case "opb" `Quick test_opb_output;
          Alcotest.test_case "opb golden" `Quick test_opb_golden;
          Alcotest.test_case "opb roundtrip" `Quick test_opb_roundtrip;
          Alcotest.test_case "opb relations" `Quick test_opb_parse_relations;
          Alcotest.test_case "opb malformed" `Quick test_opb_malformed;
          Alcotest.test_case "malformed input" `Quick test_parse_malformed;
        ] );
    ]
