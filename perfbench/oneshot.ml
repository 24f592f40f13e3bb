(* oneshot: certified chromatic numbers in process, on the path of
   `color solve --proof --verify` followed by `color check-proof`:
   DIMACS text -> Flow.run (K = 20, SC + instance-dependent SBPs, PBS II,
   inprocessing on) -> proof written, read back and replayed by the
   independent RUP checker. The traced pass calls the layers of Flow.run
   one by one, in its order, so each gets its own time. *)

module Benchmarks = Colib_graph.Benchmarks
module Generators = Colib_graph.Generators
module Dimacs_col = Colib_graph.Dimacs_col
module Flow = Colib_core.Flow
module Sbp = Colib_encode.Sbp
module Encoding = Colib_encode.Encoding
module Formula = Colib_sat.Formula
module Proof = Colib_sat.Proof
module Rup = Colib_check.Rup
module Certify = Colib_check.Certify
module Engine = Colib_solver.Engine
module Optimize = Colib_solver.Optimize
module Types = Colib_solver.Types
module Formula_graph = Colib_symmetry.Formula_graph
module Auto = Colib_symmetry.Auto
module Cgraph = Colib_symmetry.Cgraph
module Lex_leader = Colib_symmetry.Lex_leader

let k = 20
let budget = 60.0
let node_budget = 200_000

(* Three Table 1 graphs with chi <= 20, and one register-allocation graph
   with chi > 20 built by the generator of Table 1's register stand-ins
   (mulsol, zeroin) at a smaller size: the cheapest Table 1 refutation,
   mulsol.i.2, takes 6-8 s to solve and replay, too long for five rounds
   of a run. See README.md for the instances left out and why. *)
let table1 = [ "myciel4"; "queen5_5"; "queen6_6" ]
let register = ("register60", 60, 600, 22)

type input = {
  name : string;
  text : string;  (** DIMACS .col text: all the program sees *)
  table1 : int option;
      (** chi as Table 1 lists it; [None] for the register graph, whose
          refutation a clique of more than K vertices must witness *)
  n : int;
  edges : (int * int) list;  (** the benchmark's own parse *)
}

let input name table1 g =
  let text = Dimacs_col.to_string g in
  let n, edges = Checks.parse_dimacs text in
  { name; text; table1; n; edges }

let setup () =
  List.map
    (fun name ->
      let b = Benchmarks.find name in
      input name b.Benchmarks.paper_chromatic (Lazy.force b.Benchmarks.graph))
    table1
  @
  let name, n, m, clique = register in
  [ input name None (Generators.split_register ~n ~m ~clique ~seed:5) ]

(* how an instance ended: with a certified answer, at its budget (a
   failed operation), or any other way (a wrong answer: a claim the flow
   rejected, a certificate that failed, a stop for another reason) *)
type verdict =
  | Settled of Checks.certified
  | Budget
  | Unsettled of string

type outcome = {
  verdict : verdict;
  replay : (unit, string) result;
  solve_s : float;
  check_s : float;
  stats : Types.stats;
}

let config () =
  Flow.config ~engine:Types.Pbs2 ~sbp:Sbp.Sc ~instance_dependent:true
    ~timeout:budget ~fallback:[] ~verify:true ~proof:true ~inprocessing:true
    ~k ()

let claim_of = function
  | Checks.Chi (c, _) -> Proof.Optimal_claim c
  | Checks.Above _ -> Proof.Unsat_claim

(* write, read back and replay, as `color check-proof` does: against the
   formula embedded in the file *)
let check_proof ~path ~formula ~claim trace =
  Trace.span "sat.write" (fun () ->
      Proof.write_file path ~formula ~claim trace);
  let parsed = Trace.span "sat.read" (fun () -> Proof.read_file path) in
  match (parsed.Proof.p_formula, parsed.Proof.p_claim) with
  | Some f, Some c when c = claim -> (
    match
      Trace.span "check.rup" (fun () -> Rup.check_claim f c parsed.Proof.p_steps)
    with
    | Ok v -> Ok v
    | Error e -> Error (Rup.failure_to_string e))
  | _ -> Error "proof file lost its formula or claim"

(* the untraced path: Flow.run as `color solve` calls it *)
let run_flow path inp =
  let t0 = Util.now () in
  let g = Dimacs_col.parse inp.text in
  let r = Flow.run g (config ()) in
  let t1 = Util.now () in
  let verdict =
    match
      ( List.find_opt (fun a -> a.Flow.rejected) r.Flow.provenance,
        r.Flow.outcome, r.Flow.coloring, r.Flow.certificate )
    with
    | Some a, _, _, _ ->
      Unsettled (Flow.stage_name a.Flow.stage ^ " claim rejected by the flow")
    | None, Flow.Optimal c, Some col, Some (Ok ()) -> Settled (Checks.Chi (c, col))
    | None, Flow.No_coloring, _, _ -> Settled (Checks.Above k)
    | None, _, _, _ -> (
      match r.Flow.provenance with
      | { Flow.stop = Some Types.Deadline; _ } :: _ -> Budget
      | { Flow.stop = Some s; _ } :: _ ->
        Unsettled ("stopped: " ^ Types.stop_reason_name s)
      | _ -> Unsettled "ran to completion without a certified answer")
  in
  let replay =
    match (verdict, r.Flow.proof) with
    | (Budget | Unsettled _), _ -> Ok ()
    | Settled a, Some b when b.Flow.proof_claim = claim_of a ->
      Result.map ignore
        (check_proof ~path ~formula:b.Flow.proof_formula ~claim:(claim_of a)
           b.Flow.proof_trace)
    | Settled _, _ -> Error "settled without a matching proof"
  in
  let t2 = Util.now () in
  { verdict; replay; solve_s = t1 -. t0; check_s = t2 -. t1;
    stats = r.Flow.solver }

type layered = {
  outcome : outcome;
  counts : (string * float) list;
}

(* the traced path: Flow.run's layers called one by one, in its order *)
let run_layers path inp =
  let sp = Trace.span in
  let t0 = Util.now () in
  let g = sp "graph.parse" (fun () -> Dimacs_col.parse inp.text) in
  let enc = sp "encode.encode" (fun () -> Encoding.encode g ~k) in
  sp "encode.sbp" (fun () -> Sbp.add Sbp.Sc enc);
  let f = enc.Encoding.formula in
  let fs = Formula.stats f in
  let fg = sp "symmetry.build" (fun () -> Formula_graph.build f) in
  let cg = Formula_graph.graph fg in
  let res =
    sp "symmetry.search" (fun () -> Auto.automorphisms ~node_budget cg)
  in
  let perms =
    sp "symmetry.validate" (fun () ->
        List.filter_map (Formula_graph.perm_to_lit_perm fg) res.Auto.generators)
  in
  let sbp_clauses =
    sp "symmetry.lexleader" (fun () ->
        Lex_leader.add_all ~depth:max_int f perms)
  in
  let trace = Proof.create () in
  let eng =
    sp "solver.load" (fun () ->
        let eng =
          Engine.create ~proof:trace ~inprocess:true Types.Pbs2
            (Formula.num_vars f)
        in
        Engine.add_formula eng f;
        eng)
  in
  let obj = Option.get (Formula.objective f) in
  let bud = { Types.no_budget with Types.deadline = Some (Util.now () +. budget) } in
  let r = sp "solver.search" (fun () -> Optimize.minimize eng obj bud) in
  let stats = Engine.stats eng in
  let verdict =
    match r with
    | Optimize.Optimal (m, c) -> (
      let col = sp "encode.decode" (fun () -> Encoding.decode enc m) in
      match
        sp "check.certify" (fun () ->
            Result.bind (Certify.model f m) (fun () ->
                Certify.coloring g ~k ~claimed:c col))
      with
      | Ok () -> Settled (Checks.Chi (c, col))
      | Error e -> Unsettled ("certification failed: " ^ Certify.failure_to_string e))
    | Optimize.Unsatisfiable -> Settled (Checks.Above k)
    | Optimize.Satisfiable (_, _, Types.Deadline) | Optimize.Timeout Types.Deadline ->
      Budget
    | Optimize.Satisfiable (_, _, s) | Optimize.Timeout s ->
      Unsettled ("stopped: " ^ Types.stop_reason_name s)
  in
  let t1 = Util.now () in
  let replay, rup_steps =
    match verdict with
    | Budget | Unsettled _ -> (Ok (), 0)
    | Settled a -> (
      match check_proof ~path ~formula:f ~claim:(claim_of a) trace with
      | Ok v -> (Ok (), v.Rup.steps_checked)
      | Error e -> (Error e, 0))
  in
  let t2 = Util.now () in
  let proof_bytes =
    if Sys.file_exists path then float_of_int (Util.file_size path) else 0.0
  in
  let fi = float_of_int in
  let raw = List.length res.Auto.generators in
  let counts =
    [
      ("encode.vars", fi fs.Formula.vars);
      ("encode.clauses", fi fs.Formula.cnf_clauses);
      ("encode.pbs", fi fs.Formula.pb_constraints);
      ("symmetry.cgraph_vertices", fi (Cgraph.n cg));
      ("symmetry.cgraph_edges", fi (Cgraph.num_edges cg));
      ("symmetry.nodes", fi res.Auto.nodes);
      ("symmetry.raw_generators", fi raw);
      ("symmetry.generators", fi (List.length perms));
      ("symmetry.rejected", fi (raw - List.length perms));
      ("symmetry.sbp_clauses", fi sbp_clauses);
      ("sat.proof_steps", fi (Proof.num_steps trace));
      ("sat.proof_bytes", proof_bytes);
      ("check.rup_steps", fi rup_steps);
    ]
    @ Solver_stats.counts stats
  in
  { outcome = { verdict; replay; solve_s = t1 -. t0; check_s = t2 -. t1; stats };
    counts }

let run (ctx : Util.ctx) =
  let inputs = setup () in
  let setup_s = Util.now () -. ctx.Util.t_start in
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let proof_path inp = Filename.concat ctx.Util.work_dir (inp.name ^ ".proof") in
  (* checks every settled answer; an operation that reached its budget
     failed, and one that ended any other way without an answer is wrong *)
  let judge inp (o : outcome) =
    incr attempted;
    (match o.replay with
    | Ok () -> ()
    | Error e -> err "%s: proof replay rejected: %s" inp.name e);
    match o.verdict with
    | Budget -> incr failed
    | Unsettled e -> err "%s: %s" inp.name e
    | Settled a -> (
      match Checks.oneshot_answer ~table1:inp.table1 ~n:inp.n ~edges:inp.edges a with
      | Ok () -> ()
      | Error e -> err "%s: %s" inp.name e)
  in
  let rounds_wall = ref [] and rounds_solve = ref [] in
  (* each instance's certified-answer latencies, one per round *)
  let op_ms = Hashtbl.create 8 in
  let traced_rounds = ref [] and base_rounds = ref [] in
  let layer_rounds = ref [] in
  let nrounds =
    Util.rounds ctx (fun _ ->
        let r0 = Util.now () in
        let solve = ref 0.0 in
        let traced = ref 0.0 and counts = ref [] in
        let first_span = !Trace.next_id in
        List.iter
          (fun inp ->
            let path = proof_path inp in
            let o = run_flow path inp in
            Util.rm_rf path;
            let lat = o.solve_s +. o.check_s in
            judge inp o;
            solve := !solve +. o.solve_s;
            Hashtbl.replace op_ms inp.name
              ((lat *. 1000.0)
              :: Option.value (Hashtbl.find_opt op_ms inp.name) ~default:[]);
            if ctx.Util.traced then begin
              Trace.enabled := true;
              let l, dt =
                Util.time (fun () ->
                    Trace.op "oneshot.instance" inp.name (fun () ->
                        run_layers path inp))
              in
              Trace.enabled := false;
              Util.rm_rf path;
              traced := !traced +. dt;
              counts := Solver_stats.add_counts !counts l.counts;
              (match (o.verdict, l.outcome.verdict) with
              | Settled (Checks.Chi (a, _)), Settled (Checks.Chi (b, _)) when a = b -> ()
              | Settled (Checks.Above _), Settled (Checks.Above _) -> ()
              | _ -> err "%s: traced pass reached another answer" inp.name);
              if o.stats <> l.outcome.stats then
                err "%s: traced pass ran other Engine.stats counters" inp.name;
              match l.outcome.replay with
              | Ok () -> ()
              | Error e -> err "%s: traced replay rejected: %s" inp.name e
            end)
          inputs;
        let wall = Util.now () -. r0 -. !traced in
        rounds_wall := wall :: !rounds_wall;
        rounds_solve := !solve :: !rounds_solve;
        if ctx.Util.traced then begin
          base_rounds := wall :: !base_rounds;
          traced_rounds := !traced :: !traced_rounds;
          layer_rounds :=
            (Trace.self_times ~from:first_span (), !counts) :: !layer_rounds
        end)
  in
  (* an instance's latency is its median over rounds; p50 is the median
     instance, the tail the slowest *)
  let per_instance =
    List.map (fun inp -> Util.median (Hashtbl.find op_ms inp.name)) inputs
  in
  let metrics =
    if ctx.Util.traced then
      Layers.report ~rounds:!layer_rounds ~base:!base_rounds
        ~traced:!traced_rounds ~op_span:"oneshot.instance"
    else
      Layers.measured ~setup_s ~wall_s:(Util.median !rounds_wall)
        ~solve_s:(Util.median !rounds_solve)
        ~peak_rss_mb:(Util.self_peak_rss_mb ())
        ~op_p50_ms:(Util.median per_instance)
        ~op_tail_ms:(List.fold_left Float.max 0.0 per_instance)
  in
  {
    Util.attempted = !attempted;
    failed = !failed;
    errors = List.rev !errors;
    metrics;
    context =
      [
        ("rounds", string_of_int nrounds);
        ("round_wall_s", Util.json_floats (List.rev !rounds_wall));
        ("instances", string_of_int (List.length inputs));
        ("op_samples", string_of_int (nrounds * List.length inputs));
        ("tail", Util.json_string "slowest instance, its median over rounds");
      ];
  }
