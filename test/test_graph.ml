(* Tests for the graph substrate: structure, DIMACS I/O, generators, bounds,
   and the reconstructed benchmark suite. *)

module Graph = Colib_graph.Graph
module Dimacs_col = Colib_graph.Dimacs_col
module Generators = Colib_graph.Generators
module Clique = Colib_graph.Clique
module Dsatur = Colib_graph.Dsatur
module Brute = Colib_graph.Brute
module Benchmarks = Colib_graph.Benchmarks
module Prng = Colib_graph.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------- core structure ---------- *)

let test_build_basic () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 2); (1, 2) ] in
  check Alcotest.int "n" 4 (Graph.num_vertices g);
  check Alcotest.int "m merged" 2 (Graph.num_edges g);
  check Alcotest.bool "edge" true (Graph.mem_edge g 0 1);
  check Alcotest.bool "sym" true (Graph.mem_edge g 1 0);
  check Alcotest.bool "no edge" false (Graph.mem_edge g 0 2);
  check Alcotest.int "deg 1" 2 (Graph.degree g 1);
  check Alcotest.int "deg 3" 0 (Graph.degree g 3)

let test_self_loop_rejected () =
  let b = Graph.builder 3 in
  check Alcotest.bool "self loop" true
    (try
       Graph.add_edge b 1 1;
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "out of range" true
    (try
       Graph.add_edge b 0 7;
       false
     with Invalid_argument _ -> true)

let test_edges_sorted () =
  let g = Graph.of_edges 4 [ (2, 3); (0, 1); (1, 3) ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "sorted" [ (0, 1); (1, 3); (2, 3) ] (Graph.edges g)

let test_complement () =
  let g = Generators.path 4 in
  let c = Graph.complement g in
  check Alcotest.int "m + m' = C(n,2)" 6 (Graph.num_edges g + Graph.num_edges c);
  Graph.iter_edges
    (fun u v -> check Alcotest.bool "disjoint" false (Graph.mem_edge g u v))
    c

let test_induced () =
  let g = Generators.complete 5 in
  let sub = Graph.induced g [| 0; 2; 4 |] in
  check Alcotest.int "induced K3" 3 (Graph.num_edges sub);
  let p = Generators.path 5 in
  (* vertices 0 2 4 are pairwise non-adjacent on a path *)
  let sub2 = Graph.induced p [| 0; 2; 4 |] in
  check Alcotest.int "independent set" 0 (Graph.num_edges sub2)

let test_proper_coloring () =
  let g = Generators.cycle 4 in
  check Alcotest.bool "2-coloring ok" true
    (Graph.is_proper_coloring g [| 0; 1; 0; 1 |]);
  check Alcotest.bool "bad coloring" false
    (Graph.is_proper_coloring g [| 0; 0; 1; 1 |])

let test_density_and_degree () =
  let g = Generators.complete 5 in
  check (Alcotest.float 0.0001) "K5 density" 1.0 (Graph.density g);
  check Alcotest.int "K5 max degree" 4 (Graph.max_degree g);
  let p = Generators.path 4 in
  check (Alcotest.float 0.0001) "path density" 0.5 (Graph.density p);
  check Alcotest.int "vertex count via fold" 4
    (Graph.fold_vertices (fun acc _ -> acc + 1) 0 p)

let test_generator_determinism () =
  let a = Generators.gnm ~n:20 ~m:50 ~seed:9 in
  let b = Generators.gnm ~n:20 ~m:50 ~seed:9 in
  check Alcotest.bool "same seed, same graph" true (Graph.equal a b);
  let c = Generators.gnm ~n:20 ~m:50 ~seed:10 in
  check Alcotest.bool "different seed differs" false (Graph.equal a c);
  let r1 = Generators.split_register ~n:40 ~m:200 ~clique:8 ~seed:3 in
  let r2 = Generators.split_register ~n:40 ~m:200 ~clique:8 ~seed:3 in
  check Alcotest.bool "register model deterministic" true (Graph.equal r1 r2)

let test_interval_rejects_empty () =
  check Alcotest.bool "empty interval" true
    (try
       ignore (Generators.interval_conflicts [ (3, 3) ]);
       false
     with Invalid_argument _ -> true)

(* ---------- prng determinism ---------- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done;
  let c = Prng.create 43 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Prng.int a 1000 <> Prng.int c 1000 then differs := true
  done;
  check Alcotest.bool "different seeds differ" true !differs

(* ---------- dimacs ---------- *)

let test_dimacs_roundtrip () =
  let g = Generators.queens ~rows:4 ~cols:4 in
  let text = Dimacs_col.to_string ~comment:"queen4_4" g in
  let g' = Dimacs_col.parse text in
  check Alcotest.bool "roundtrip" true (Graph.equal g g')

let test_dimacs_duplicate_edges_merged () =
  let g = Dimacs_col.parse "p edge 3 4\ne 1 2\ne 2 1\ne 2 3\ne 2 3\n" in
  check Alcotest.int "merged" 2 (Graph.num_edges g)

let test_dimacs_malformed () =
  (* every malformed input surfaces as the one typed error, pinned to the
     1-based line that caused it *)
  List.iter
    (fun (text, bad_line) ->
      match Dimacs_col.parse_result text with
      | Ok _ -> Alcotest.fail ("accepted " ^ String.escaped text)
      | Error e ->
        check Alcotest.int
          ("line for " ^ String.escaped text)
          bad_line e.Dimacs_col.line;
        check Alcotest.bool "message nonempty" true
          (String.length e.Dimacs_col.message > 0))
    [
      ("e 1 2\n", 1);
      ("p edge x 1\n", 1);
      ("p edge 2 1\ne 1 5\n", 2);
      ("p edge 2 1\ne one 2\n", 2);
      ("p edge 2 1\ne 0 2\n", 2);
      ("p edge 2 1\ne -1 2\n", 2);
      ("p edge 2 1\np edge 2 1\n", 2);
      ("p edge -3 1\n", 1);
      ("hello\n", 1);
      ("", 1);
      ("c fine\nc still fine\nwat\n", 3);
    ];
  (* the raising variant throws the same typed exception, never Failure *)
  check Alcotest.bool "typed exception" true
    (try
       ignore (Dimacs_col.parse "e 1 2\n");
       false
     with Dimacs_col.Error { line = 1; _ } -> true)

let test_dimacs_selfloop_dropped () =
  let g = Dimacs_col.parse "p edge 3 2\ne 1 1\ne 1 2\n" in
  check Alcotest.int "self loop dropped" 1 (Graph.num_edges g)

(* ---------- exact generator constructions ---------- *)

let test_complete_sizes () =
  let g = Generators.complete 6 in
  check Alcotest.int "K6 edges" 15 (Graph.num_edges g);
  check Alcotest.int "chi" 6 (Brute.chromatic_number g)

let test_cycles () =
  check Alcotest.int "C5 chi" 3 (Brute.chromatic_number (Generators.cycle 5));
  check Alcotest.int "C6 chi" 2 (Brute.chromatic_number (Generators.cycle 6))

let test_wheel () =
  check Alcotest.int "even rim" 3 (Brute.chromatic_number (Generators.wheel 6));
  check Alcotest.int "odd rim" 4 (Brute.chromatic_number (Generators.wheel 5));
  check Alcotest.int "hub degree" 6 (Graph.degree (Generators.wheel 6) 6)

let test_crown () =
  let g = Generators.crown 4 in
  check Alcotest.int "V" 8 (Graph.num_vertices g);
  check Alcotest.int "E" 12 (Graph.num_edges g);
  check Alcotest.int "bipartite" 2 (Brute.chromatic_number g);
  check Alcotest.bool "matching removed" false (Graph.mem_edge g 0 4)

let test_kneser () =
  (* K(5,2) is the Petersen graph *)
  let k52 = Generators.kneser ~n:5 ~k:2 in
  check Alcotest.bool "K(5,2) = petersen" true
    (Graph.num_vertices k52 = 10
    && Graph.num_edges k52 = 15
    && Graph.max_degree k52 = 3);
  (* Lovász: chi(K(n,k)) = n - 2k + 2 *)
  check Alcotest.int "chi K(5,2)" 3 (Brute.chromatic_number k52);
  let k62 = Generators.kneser ~n:6 ~k:2 in
  check Alcotest.int "V K(6,2)" 15 (Graph.num_vertices k62);
  check Alcotest.int "chi K(6,2)" 4 (Brute.chromatic_number k62)

let test_petersen () =
  let g = Generators.petersen () in
  check Alcotest.int "V" 10 (Graph.num_vertices g);
  check Alcotest.int "E" 15 (Graph.num_edges g);
  check Alcotest.int "3-regular" 3 (Graph.max_degree g);
  check Alcotest.int "chi" 3 (Brute.chromatic_number g)

let test_queens_sizes () =
  (* (V, E) of the DIMACS queens instances (undirected edge counts) *)
  List.iter
    (fun (r, c, v, e) ->
      let g = Generators.queens ~rows:r ~cols:c in
      check Alcotest.int (Printf.sprintf "queen%d_%d V" r c) v
        (Graph.num_vertices g);
      check Alcotest.int (Printf.sprintf "queen%d_%d E" r c) e
        (Graph.num_edges g))
    [ (5, 5, 25, 160); (6, 6, 36, 290); (7, 7, 49, 476); (8, 12, 96, 1368) ]

let test_queens_chromatic_small () =
  check Alcotest.int "queen4_4 chi" 5
    (Brute.chromatic_number (Generators.queens ~rows:4 ~cols:4));
  check Alcotest.int "queen5_5 chi" 5
    (Brute.chromatic_number (Generators.queens ~rows:5 ~cols:5))

let test_mycielski () =
  List.iter
    (fun (k, v, e, chi) ->
      let g = Generators.mycielski k in
      check Alcotest.int (Printf.sprintf "myciel%d V" k) v (Graph.num_vertices g);
      check Alcotest.int (Printf.sprintf "myciel%d E" k) e (Graph.num_edges g);
      if v <= 25 then
        check Alcotest.int (Printf.sprintf "myciel%d chi" k) chi
          (Brute.chromatic_number g))
    [ (2, 5, 5, 3); (3, 11, 20, 4); (4, 23, 71, 5); (5, 47, 236, 6) ]

let test_mycielski_triangle_free () =
  (* Mycielski transformation preserves triangle-freeness *)
  let g = Generators.mycielski 4 in
  let ok = ref true in
  Graph.iter_edges
    (fun u v ->
      Array.iter
        (fun w -> if Graph.mem_edge g v w then ok := false)
        (Graph.neighbors g u))
    g;
  check Alcotest.bool "no triangles" true !ok

(* ---------- random models ---------- *)

let test_gnm_exact () =
  let g = Generators.gnm ~n:30 ~m:100 ~seed:7 in
  check Alcotest.int "edges exact" 100 (Graph.num_edges g);
  check Alcotest.bool "too many rejected" true
    (try
       ignore (Generators.gnm ~n:4 ~m:10 ~seed:1);
       false
     with Invalid_argument _ -> true)

let test_geometric_exact () =
  let g = Generators.geometric ~n:40 ~m:77 ~seed:9 in
  check Alcotest.int "edges exact" 77 (Graph.num_edges g)

let test_planted_degenerate () =
  let g = Generators.planted_degenerate ~n:60 ~m:300 ~clique:7 ~seed:3 in
  check Alcotest.int "V" 60 (Graph.num_vertices g);
  check Alcotest.int "E" 300 (Graph.num_edges g);
  (* the planted clique survives the relabeling *)
  check Alcotest.int "clique planted" 7
    (Array.length (Clique.max_clique g));
  (* chromatic number is exactly the planted clique size: the construction
     is (clique-1)-degenerate, so the smallest-last bound meets the clique *)
  check Alcotest.int "upper bound = clique" 7 (Dsatur.upper_bound g)

let test_split_register () =
  let g = Generators.split_register ~n:50 ~m:250 ~clique:9 ~seed:5 in
  check Alcotest.int "V" 50 (Graph.num_vertices g);
  check Alcotest.int "E" 250 (Graph.num_edges g);
  check Alcotest.int "clique planted" 9 (Array.length (Clique.max_clique g));
  (* bounded backward degree makes the smallest-last order optimal *)
  check Alcotest.int "upper bound = clique" 9 (Dsatur.upper_bound g);
  let big = Generators.split_register ~n:100 ~m:1200 ~clique:25 ~seed:6 in
  check Alcotest.int "big E" 1200 (Graph.num_edges big);
  check Alcotest.int "big chi" 25 (Dsatur.upper_bound big)

let test_frequency_assignment () =
  (* two adjacent regions needing 2 and 3 frequencies: K2 + K3 + complete
     bipartite = K5 *)
  let g =
    Generators.frequency_assignment ~demands:[| 2; 3 |] ~adjacent:[ (0, 1) ]
  in
  check Alcotest.int "V" 5 (Graph.num_vertices g);
  check Alcotest.int "E = K5" 10 (Graph.num_edges g);
  check Alcotest.int "chi" 5 (Brute.chromatic_number g)

let test_interval_conflicts () =
  let g =
    Generators.interval_conflicts [ (0, 10); (5, 15); (12, 20); (0, 3) ]
  in
  check Alcotest.bool "0-1 overlap" true (Graph.mem_edge g 0 1);
  check Alcotest.bool "1-2 overlap" true (Graph.mem_edge g 1 2);
  check Alcotest.bool "0-2 disjoint" false (Graph.mem_edge g 0 2);
  check Alcotest.bool "0-3 overlap" true (Graph.mem_edge g 0 3)

(* ---------- bounds ---------- *)

let test_clique_greedy () =
  let g = Generators.complete 8 in
  check Alcotest.int "K8 clique" 8 (Array.length (Clique.greedy g));
  let c = Clique.greedy (Generators.cycle 7) in
  check Alcotest.bool "C7 clique is clique" true
    (Clique.is_clique (Generators.cycle 7) c)

let test_max_clique_exact () =
  check Alcotest.int "petersen max clique" 2
    (Array.length (Clique.max_clique (Generators.petersen ())));
  check Alcotest.int "queen5_5 max clique" 5
    (Array.length (Clique.max_clique (Generators.queens ~rows:5 ~cols:5)));
  check Alcotest.int "myciel4 triangle-free" 2
    (Array.length (Clique.max_clique (Generators.mycielski 4)))

let test_dsatur_bipartite_optimal () =
  (* DSATUR is optimal on bipartite graphs (Brelaz 1979) *)
  for n = 2 to 6 do
    let g = Generators.complete_bipartite n (n + 1) in
    check Alcotest.int "bipartite 2 colors" 2
      (Dsatur.num_colors (Dsatur.dsatur g))
  done;
  check Alcotest.int "even cycle" 2
    (Dsatur.num_colors (Dsatur.dsatur (Generators.cycle 8)))

let test_dsatur_proper () =
  let g = Generators.queens ~rows:6 ~cols:6 in
  check Alcotest.bool "proper" true
    (Graph.is_proper_coloring g (Dsatur.dsatur g));
  check Alcotest.bool "wp proper" true
    (Graph.is_proper_coloring g (Dsatur.welsh_powell g));
  check Alcotest.bool "smallest-last proper" true
    (Graph.is_proper_coloring g (Dsatur.smallest_last g))

let test_smallest_last_degenerate_optimal () =
  (* on a tree (1-degenerate) smallest-last uses exactly 2 colors *)
  let tree = Graph.of_edges 7 [ (0, 1); (0, 2); (1, 3); (1, 4); (2, 5); (2, 6) ] in
  check Alcotest.int "tree 2 colors" 2
    (Dsatur.num_colors (Dsatur.smallest_last tree))

(* properties over random graphs *)
let graph_arb =
  QCheck.make
    ~print:(fun (n, m, seed) -> Printf.sprintf "gnm(%d,%d,%d)" n m seed)
    QCheck.Gen.(
      let* n = int_range 2 9 in
      let* m = int_range 0 (n * (n - 1) / 2) in
      let* seed = int_range 0 10000 in
      return (n, m, seed))

let prop_dsatur_sandwich =
  QCheck.Test.make ~name:"clique <= chi <= dsatur" ~count:60 graph_arb
    (fun (n, m, seed) ->
      let g = Generators.gnm ~n ~m ~seed in
      let lb = Array.length (Clique.max_clique g) in
      let chi = Brute.chromatic_number g in
      let ub = Dsatur.num_colors (Dsatur.dsatur g) in
      lb <= chi && chi <= ub)

let prop_colorings_proper =
  QCheck.Test.make ~name:"heuristic colorings are proper" ~count:60 graph_arb
    (fun (n, m, seed) ->
      let g = Generators.gnm ~n ~m ~seed in
      Graph.is_proper_coloring g (Dsatur.dsatur g)
      && Graph.is_proper_coloring g (Dsatur.welsh_powell g))

let prop_brute_monotone =
  QCheck.Test.make ~name:"k-colorability monotone in k" ~count:40 graph_arb
    (fun (n, m, seed) ->
      let g = Generators.gnm ~n ~m ~seed in
      let chi = Brute.chromatic_number g in
      Brute.k_colorable g (chi - 1) = None
      && Brute.k_colorable g chi <> None
      && Brute.k_colorable g (chi + 1) <> None)

let prop_dimacs_roundtrip =
  QCheck.Test.make ~name:"dimacs roundtrip random" ~count:40 graph_arb
    (fun (n, m, seed) ->
      let g = Generators.gnm ~n ~m ~seed in
      Graph.equal g (Dimacs_col.parse (Dimacs_col.to_string g)))

(* ---------- exact DSATUR branch & bound ---------- *)

module Exact_dsatur = Colib_graph.Exact_dsatur

let test_exact_dsatur_known () =
  List.iter
    (fun (name, g, chi) ->
      match Exact_dsatur.solve g with
      | Exact_dsatur.Exact (c, coloring) ->
        check Alcotest.int name chi c;
        check Alcotest.bool (name ^ " proper") true
          (Graph.is_proper_coloring g coloring);
        check Alcotest.int (name ^ " count") chi (Dsatur.num_colors coloring)
      | Exact_dsatur.Bounds _ -> Alcotest.fail (name ^ ": budget hit"))
    [
      ("myciel3", Generators.mycielski 3, 4);
      ("myciel4", Generators.mycielski 4, 5);
      ("petersen", Generators.petersen (), 3);
      ("queen5_5", Generators.queens ~rows:5 ~cols:5, 5);
      ("K6", Generators.complete 6, 6);
      ("wheel5", Generators.wheel 5, 4);
    ]

let test_exact_dsatur_budget () =
  (* a one-node budget must yield bounds, never a wrong exact answer *)
  let g = Generators.mycielski 5 in
  match Exact_dsatur.solve ~node_limit:1 g with
  | Exact_dsatur.Bounds (lb, ub, coloring, cut) ->
    check Alcotest.bool "bounds sandwich" true (lb <= 6 && 6 <= ub);
    check Alcotest.bool "cut reason" true (cut = Exact_dsatur.Nodes);
    check Alcotest.bool "bounds coloring proper" true
      (Graph.is_proper_coloring g coloring)
  | Exact_dsatur.Exact (c, _) ->
    (* acceptable only if the heuristic bounds already met *)
    check Alcotest.int "exact despite budget" 6 c

let test_exact_dsatur_deadline_now () =
  (* regression: the deadline check is [>=], so an already-due deadline
     (zero timeout) must cut the search at entry with a Time reason *)
  let g = Generators.mycielski 4 in
  match Exact_dsatur.solve ~deadline:(Colib_clock.Mclock.now ()) g with
  | Exact_dsatur.Bounds (lb, ub, coloring, cut) ->
    check Alcotest.bool "cut by time" true (cut = Exact_dsatur.Time);
    check Alcotest.bool "bounds sandwich" true (lb <= 5 && 5 <= ub);
    check Alcotest.bool "coloring proper" true
      (Graph.is_proper_coloring g coloring)
  | Exact_dsatur.Exact _ ->
    Alcotest.fail "expired deadline must not report an exact answer"

let test_exact_dsatur_clique_seed () =
  (* an interval graph with chi = omega = 5 whose greedy clique has only 4
     vertices: seeded with that, the search cannot prove 5 before its node
     budget runs out, so the lower bound must come from a (capped) exact
     clique search *)
  let g =
    Generators.interval_conflicts
      [ (92, 103); (40, 52); (69, 80); (94, 97); (10, 13); (62, 69); (7, 12);
        (11, 16); (14, 20); (11, 14); (96, 105); (7, 12); (67, 71); (38, 49);
        (32, 36); (73, 80); (85, 92); (90, 95); (51, 62); (22, 34); (86, 95);
        (81, 87); (73, 83); (83, 89); (59, 67); (12, 22); (35, 44) ]
  in
  check Alcotest.int "greedy clique" 4 (Array.length (Clique.greedy g));
  match Exact_dsatur.solve g with
  | Exact_dsatur.Exact (c, coloring) ->
    check Alcotest.int "chi" 5 c;
    check Alcotest.bool "proper" true (Graph.is_proper_coloring g coloring)
  | Exact_dsatur.Bounds (lb, ub, _, _) ->
    Alcotest.failf "expected Exact 5, got Bounds (%d, %d)" lb ub

let prop_exact_dsatur_matches_brute =
  QCheck.Test.make ~name:"exact DSATUR = brute force" ~count:40 graph_arb
    (fun (n, m, seed) ->
      let g = Generators.gnm ~n ~m ~seed in
      Exact_dsatur.chromatic_number g = Some (Brute.chromatic_number g))

(* ---------- benchmark suite ---------- *)

let test_benchmark_inventory () =
  check Alcotest.int "20 instances" 20 (List.length Benchmarks.all);
  check Alcotest.int "4 queens" 4 (List.length Benchmarks.queens_family)

let test_benchmark_sizes () =
  (* every instance has the paper's vertex count; exact families also match
     the paper's (possibly doubled) edge counts *)
  List.iter
    (fun b ->
      let g = Lazy.force b.Benchmarks.graph in
      check Alcotest.int (b.Benchmarks.name ^ " V") b.Benchmarks.paper_vertices
        (Graph.num_vertices g);
      match b.Benchmarks.family with
      | Benchmarks.Queens ->
        check Alcotest.int (b.Benchmarks.name ^ " 2E") b.Benchmarks.paper_edges
          (2 * Graph.num_edges g)
      | Benchmarks.Mycielski ->
        check Alcotest.int (b.Benchmarks.name ^ " E") b.Benchmarks.paper_edges
          (Graph.num_edges g)
      | Benchmarks.Register ->
        check Alcotest.int (b.Benchmarks.name ^ " E") b.Benchmarks.paper_edges
          (Graph.num_edges g)
      | Benchmarks.Book | Benchmarks.Random | Benchmarks.Mileage
      | Benchmarks.Games ->
        check Alcotest.int (b.Benchmarks.name ^ " 2E") b.Benchmarks.paper_edges
          (2 * Graph.num_edges g))
    Benchmarks.all

let test_benchmark_planted_chromatic () =
  (* families with planted chromatic structure hit the paper's number *)
  List.iter
    (fun name ->
      let b = Benchmarks.find name in
      let g = Lazy.force b.Benchmarks.graph in
      match b.Benchmarks.paper_chromatic with
      | Some chi ->
        check Alcotest.int (name ^ " dsatur") chi
          (Dsatur.num_colors (Dsatur.dsatur g))
      | None -> ())
    [ "anna"; "david"; "huck"; "jean"; "games120" ]

let test_benchmark_find () =
  check Alcotest.bool "find" true
    ((Benchmarks.find "queen5_5").Benchmarks.family = Benchmarks.Queens);
  check Alcotest.bool "missing" true
    (try
       ignore (Benchmarks.find "nonexistent");
       false
     with Not_found -> true)

let () =
  Alcotest.run "graph"
    [
      ( "structure",
        [
          Alcotest.test_case "build" `Quick test_build_basic;
          Alcotest.test_case "self loops" `Quick test_self_loop_rejected;
          Alcotest.test_case "edges sorted" `Quick test_edges_sorted;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "proper coloring" `Quick test_proper_coloring;
          Alcotest.test_case "density/degree" `Quick test_density_and_degree;
          Alcotest.test_case "determinism" `Quick test_generator_determinism;
          Alcotest.test_case "empty interval" `Quick test_interval_rejects_empty;
          Alcotest.test_case "prng" `Quick test_prng_deterministic;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "dup edges" `Quick test_dimacs_duplicate_edges_merged;
          Alcotest.test_case "malformed" `Quick test_dimacs_malformed;
          Alcotest.test_case "self loop" `Quick test_dimacs_selfloop_dropped;
        ] );
      ( "generators",
        [
          Alcotest.test_case "complete" `Quick test_complete_sizes;
          Alcotest.test_case "cycles" `Quick test_cycles;
          Alcotest.test_case "petersen" `Quick test_petersen;
          Alcotest.test_case "wheel" `Quick test_wheel;
          Alcotest.test_case "crown" `Quick test_crown;
          Alcotest.test_case "kneser" `Quick test_kneser;
          Alcotest.test_case "queens sizes" `Quick test_queens_sizes;
          Alcotest.test_case "queens chi" `Slow test_queens_chromatic_small;
          Alcotest.test_case "mycielski" `Quick test_mycielski;
          Alcotest.test_case "mycielski triangle-free" `Quick
            test_mycielski_triangle_free;
          Alcotest.test_case "gnm" `Quick test_gnm_exact;
          Alcotest.test_case "geometric" `Quick test_geometric_exact;
          Alcotest.test_case "planted degenerate" `Quick test_planted_degenerate;
          Alcotest.test_case "split register" `Quick test_split_register;
          Alcotest.test_case "frequency assignment" `Quick
            test_frequency_assignment;
          Alcotest.test_case "intervals" `Quick test_interval_conflicts;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "clique greedy" `Quick test_clique_greedy;
          Alcotest.test_case "max clique" `Quick test_max_clique_exact;
          Alcotest.test_case "dsatur bipartite" `Quick
            test_dsatur_bipartite_optimal;
          Alcotest.test_case "dsatur proper" `Quick test_dsatur_proper;
          Alcotest.test_case "smallest-last optimal on trees" `Quick
            test_smallest_last_degenerate_optimal;
          qtest prop_dsatur_sandwich;
          qtest prop_colorings_proper;
          qtest prop_brute_monotone;
          qtest prop_dimacs_roundtrip;
        ] );
      ( "exact dsatur",
        [
          Alcotest.test_case "known instances" `Quick test_exact_dsatur_known;
          Alcotest.test_case "budget" `Quick test_exact_dsatur_budget;
          Alcotest.test_case "deadline == now cuts at entry" `Quick
            test_exact_dsatur_deadline_now;
          Alcotest.test_case "greedy clique below omega" `Quick
            test_exact_dsatur_clique_seed;
          qtest prop_exact_dsatur_matches_brute;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "inventory" `Quick test_benchmark_inventory;
          Alcotest.test_case "sizes" `Quick test_benchmark_sizes;
          Alcotest.test_case "planted chromatic" `Quick
            test_benchmark_planted_chromatic;
          Alcotest.test_case "find" `Quick test_benchmark_find;
        ] );
    ]
