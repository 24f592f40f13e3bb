(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Ramani, Aloul, Markov, Sakallah — "Breaking
   Instance-Independent Symmetries in Exact Graph Coloring").

     table1  — benchmark statistics (paper Table 1)
     table2  — formula sizes + residual symmetries per SBP (paper Table 2)
     table3  — solver sweep at K = 20 (paper Table 3)
     table4  — solver sweep at K = 30 (paper Table 4)
     table5  — per-instance queens results, all engines (paper Table 5)
     figure1 — the worked 4-vertex example (paper Figure 1)
     ablation— design-choice ablations (ours; see DESIGN.md)
     all     — everything above

   Absolute numbers differ from the paper (different machines, different
   solver implementations, scaled-down timeouts); the shapes — which
   configuration wins, by what factor, where symmetry breaking is decisive —
   are the reproduction target. EXPERIMENTS.md records paper-vs-measured.

   Robustness: every completed (instance, config) cell of the solver sweeps
   is journaled to runs/<run-id>.jsonl (each append is committed atomically,
   so a crash never corrupts it); --resume reloads the journal and skips
   the journaled cells. --jobs N runs sweep cells in supervised worker
   processes — a crashed or hung worker is classified, reported, and
   recorded as an unsolved cell instead of killing the run. With --out-dir,
   each section's table is written to <dir>/<section>.txt via a temp file
   renamed only on success, so readers never observe a truncated table.

   Exit codes: 0 success, 1 usage error, 3 certification failure,
   130 interrupted by SIGINT, 143 terminated by SIGTERM. *)

module Graph = Colib_graph.Graph
module Generators = Colib_graph.Generators
module Benchmarks = Colib_graph.Benchmarks
module Clique = Colib_graph.Clique
module Dsatur = Colib_graph.Dsatur
module Formula = Colib_sat.Formula
module Encoding = Colib_encode.Encoding
module Sbp = Colib_encode.Sbp
module Types = Colib_solver.Types
module Engine = Colib_solver.Engine
module Optimize = Colib_solver.Optimize
module Checkpoint = Colib_solver.Checkpoint
module Output = Colib_sat.Output
module Certify = Colib_check.Certify
module Rup = Colib_check.Rup
module Proof = Colib_sat.Proof
module Flow = Colib_core.Flow
module Auto = Colib_symmetry.Auto
module Formula_graph = Colib_symmetry.Formula_graph
module Lex_leader = Colib_symmetry.Lex_leader
module Portfolio = Colib_portfolio.Portfolio
module Journal = Colib_portfolio.Journal
module Frame = Colib_portfolio.Frame
module Client = Colib_server.Client
module Balancer = Colib_server.Balancer

type options = {
  timeout : float;        (* per-solve budget, seconds *)
  node_budget : int;      (* automorphism search nodes *)
  only : string list;     (* instance filter; [] = all *)
  jobs : int;             (* sweep cells per worker process; <=1 = in-process *)
  journal : Journal.t;    (* crash-safe record of completed sweep cells *)
  out_dir : string option; (* atomic per-section table files *)
  ckpt_dir : string;      (* mid-cell snapshots, runs/<run-id>.ckpt/ *)
  resume : bool;          (* also resume partially-solved cells mid-search *)
  daemon : string option;
      (* submit sweep cells to these coloring daemons (comma-separated
         socket specs, balanced with health-probed rotation) *)
}

(* ---------- signal handling ----------

   SIGINT/SIGTERM stop the run cooperatively: in-process solves notice the
   flag through their budget's cancel hook, worker processes are reaped by
   the supervisor's [should_stop], the journal already holds every completed
   cell (each append is atomic), and the harness exits 130/143. A partially
   emitted --out-dir table is left as an unrenamed .tmp, never published. *)

let interrupted : int option ref = ref None

let install_signal_handlers () =
  let record s = interrupted := Some s in
  Sys.set_signal Sys.sigint (Sys.Signal_handle record);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle record)

let interrupt_requested () = !interrupted <> None

let exit_interrupted () =
  match !interrupted with
  | None -> ()
  | Some s ->
    let name, code =
      if s = Sys.sigterm then ("SIGTERM", 143) else ("SIGINT", 130)
    in
    Printf.eprintf "bench: interrupted by %s (journal retained)\n%!" name;
    exit code

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let cert_failure_marker = "CERTIFICATION FAILURE"

let instances opts =
  match opts.only with
  | [] -> Benchmarks.all
  | names -> List.filter (fun b -> List.mem b.Benchmarks.name names) Benchmarks.all

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let pct_time t = Printf.sprintf "%.2f" t

(* ------------------------------------------------------------------ *)
(* shared: build a formula for (graph, k, sbp), optionally with the
   instance-dependent flow; returns formula + detection time *)

let build_formula ?(with_isd = false) ~node_budget g ~k ~sbp =
  let enc = Encoding.encode g ~k in
  Sbp.add sbp enc;
  let f = enc.Encoding.formula in
  if with_isd then begin
    let t0 = Colib_clock.Mclock.now () in
    let _, perms = Formula_graph.detect ~node_budget f in
    let _ = Lex_leader.add_all f perms in
    (f, Colib_clock.Mclock.now () -. t0)
  end
  else (f, 0.0)

(* every model an engine hands back is re-checked against the formula text;
   a failure here is a solver bug, so it aborts the whole benchmark run
   loudly (exit 3 from the top-level handler) rather than silently polluting
   a table. Raising — instead of exiting here — lets a certification failure
   inside a sweep worker travel back to the supervisor as a marked message. *)
let certify_model f m claimed =
  let fail fl =
    failwith
      (Printf.sprintf "%s: %s" cert_failure_marker
         (Certify.failure_to_string fl))
  in
  (match Certify.model f m with Ok () -> () | Error fl -> fail fl);
  match claimed with
  | None -> ()
  | Some c -> (
    match Certify.model_cost f m ~claimed:c with
    | Ok () -> ()
    | Error fl -> fail fl)

(* one sweep cell's measurement: timing, the engine's counters, and — when
   a proof was logged — the size of the trace and whether it replayed
   through the independent checker *)
type cell_stats = {
  cs_time : float;
  cs_solved : bool;
  cs_conflicts : int;
  cs_decisions : int;
  cs_propagations : int;
  cs_learned : int;
  cs_restarts : int;
  (* inprocessing counters *)
  cs_subsumed : int;
  cs_eliminated : int;
  cs_probed : int;
  cs_substituted : int;
  cs_proof_steps : int;     (* 0 when no proof was logged *)
  cs_proof_checked : bool;  (* the trace replayed through Colib_check.Rup *)
}

(* proof logging is reserved for the learning engines: the generic B&B logs
   one decision-negation clause per backtrack, so its trace grows as
   conflicts x stack depth — prohibitive at sweep scale *)
let logs_proof = function
  | Types.Cplex -> false
  | Types.Pbs1 | Types.Pbs2 | Types.Galena | Types.Pueblo -> true

(* solve and report a [cell_stats] — timeouts count as the full budget,
   like the paper's totals. Every settled answer (optimal or UNSAT) of a
   proof-logging engine is replayed through the independent RUP checker; a
   rejected proof aborts the run like a certification failure. *)
let timed_solve ?ckpt engine f timeout =
  let t0 = Colib_clock.Mclock.now () in
  let budget =
    {
      (Types.within_seconds timeout) with
      Types.cancel = Some interrupt_requested;
    }
  in
  (* mid-cell checkpointing: a killed bench run resumes a half-solved cell
     from its last snapshot instead of repaying the whole cell budget. The
     snapshot is identity-validated (label, engine, k, digest of the OPB
     text) and deleted once the cell completes. *)
  let ck_emitter, ck_resume, ck_path =
    match ckpt with
    | None -> (None, None, None)
    | Some (dir, label, k, resume) ->
      Checkpoint.ensure_dir dir;
      let digest = Digest.to_hex (Digest.string (Output.opb_string f)) in
      let path =
        Checkpoint.snapshot_path ~dir ~label ~engine:(Types.engine_name engine)
          ~k
      in
      let sn =
        if not resume then None
        else
          match Checkpoint.read path with
          | Error _ -> None
          | Ok sn -> (
            match
              Checkpoint.validate sn ~label ~k ~digest ~engine
                ~nvars:(Formula.num_vars f)
            with
            | Ok () -> Some sn
            | Error _ -> None)
      in
      ( Some (Checkpoint.emitter ~label ~k ~digest ~path ~interval:5.0 ()),
        sn,
        Some path )
  in
  let trace =
    if not (logs_proof engine) then None
    else
      match ck_resume with
      | Some sn -> Some (Proof.of_steps sn.Checkpoint.sn_proof)
      | None -> Some (Proof.create ())
  in
  let eng = Engine.create ?proof:trace engine (Formula.num_vars f) in
  Engine.add_formula eng f;
  let r =
    match Formula.objective f with
    | Some obj ->
      Optimize.minimize ?checkpoint:ck_emitter ?resume:ck_resume eng obj
        budget
    | None -> (
      match Engine.solve eng budget with
      | Types.Sat m -> Optimize.Optimal (m, 0)
      | Types.Unsat -> Optimize.Unsatisfiable
      | Types.Unknown reason -> Optimize.Timeout reason)
  in
  (match ck_path with
  | Some p when not (interrupt_requested ()) -> (
    try Sys.remove p with Sys_error _ -> ())
  | _ -> ());
  let dt = Colib_clock.Mclock.now () -. t0 in
  let s = Engine.stats eng in
  let base =
    {
      cs_time = dt;
      cs_solved = false;
      cs_conflicts = s.Types.conflicts;
      cs_decisions = s.Types.decisions;
      cs_propagations = s.Types.propagations;
      cs_learned = s.Types.learned;
      cs_restarts = s.Types.restarts;
      cs_subsumed = s.Types.subsumed;
      cs_eliminated = s.Types.eliminated;
      cs_probed = s.Types.probed;
      cs_substituted = s.Types.substituted;
      cs_proof_steps =
        (match trace with Some t -> Proof.num_steps t | None -> 0);
      cs_proof_checked = false;
    }
  in
  let replay claim =
    match trace with
    | None -> false
    | Some t -> (
      match Rup.check_claim f claim (Proof.steps t) with
      | Ok _ -> true
      | Error fl ->
        failwith
          (Printf.sprintf "%s: proof replay: %s" cert_failure_marker
             (Rup.failure_to_string fl)))
  in
  match r with
  | Optimize.Optimal (m, c) ->
    let claimed = if Formula.objective f = None then None else Some c in
    certify_model f m claimed;
    let checked =
      match claimed with
      | Some c -> replay (Proof.Optimal_claim c)
      | None -> false
    in
    { base with cs_solved = true; cs_proof_checked = checked }
  | Optimize.Unsatisfiable ->
    { base with cs_solved = true; cs_proof_checked = replay Proof.Unsat_claim }
  | Optimize.Satisfiable (m, c, _) ->
    certify_model f m (Some c);
    { base with cs_time = Float.max dt timeout }
  | Optimize.Timeout _ -> { base with cs_time = Float.max dt timeout }

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let table1 opts =
  hr "Table 1 — DIMACS graph coloring benchmarks";
  Printf.printf
    "(paper edge counts are doubled for some families; measured chromatic\n\
    \ numbers use clique/heuristic bounds plus the ILP flow within the \
     budget)\n\n";
  Printf.printf "%-12s %5s %7s %9s %8s %9s\n" "Instance" "#V" "#E"
    "#E(paper)" "K(paper)" "K(ours)";
  List.iter
    (fun b ->
      let g = Lazy.force b.Benchmarks.graph in
      let lower = Array.length (Clique.greedy g) in
      let upper = Dsatur.upper_bound g in
      let chi =
        if upper > 20 then ">20"
        else if lower = upper then string_of_int upper
        else begin
          let cfg =
            Flow.config ~sbp:Sbp.Sc ~instance_dependent:true
              ~timeout:(5.0 *. opts.timeout) ~k:upper ()
          in
          match (Flow.run g cfg).Flow.outcome with
          | Flow.Optimal c -> string_of_int c
          | Flow.Best c -> Printf.sprintf "<=%d" c
          | Flow.No_coloring | Flow.Timed_out -> Printf.sprintf "<=%d" upper
        end
      in
      Printf.printf "%-12s %5d %7d %9d %8s %9s\n" b.Benchmarks.name
        (Graph.num_vertices g) (Graph.num_edges g) b.Benchmarks.paper_edges
        (match b.Benchmarks.paper_chromatic with
        | Some c -> string_of_int c
        | None -> ">20")
        chi)
    (instances opts)

(* ------------------------------------------------------------------ *)
(* Table 2 *)

(* log10 of a sum of numbers given as log10 values *)
let log10_sum logs =
  match logs with
  | [] -> neg_infinity
  | _ ->
    let m = List.fold_left Float.max neg_infinity logs in
    m +. log10 (List.fold_left (fun acc l -> acc +. (10.0 ** (l -. m))) 0.0 logs)

let table2 ?(k = 20) opts =
  hr (Printf.sprintf "Table 2 — formula sizes and symmetry statistics (K=%d)" k);
  Printf.printf
    "(sums over the %d instances, as in the paper; paper totals at K=20:\n\
    \ no SBPs 1.1e+168 syms / 994 gens / 185 s, NU 5.0e+149 / 614 / 49 s,\n\
    \ CA 5.0e+149 / 614 / 49 s, LI 2.0e+01 / 0 / 84 s, SC 3.0e+164 / 941 / \
     167 s)\n\n"
    (List.length (instances opts));
  Printf.printf "%-9s %10s %10s %7s %14s %6s %9s\n" "SBP" "#V" "#CL" "#PB"
    "#S" "#G" "Time";
  List.iter
    (fun sbp ->
      let vars = ref 0 and cls = ref 0 and pbs = ref 0 in
      let gens = ref 0 and time = ref 0.0 in
      let orders = ref [] in
      List.iter
        (fun b ->
          let g = Lazy.force b.Benchmarks.graph in
          let si, st =
            Flow.symmetry_stats ~node_budget:opts.node_budget g ~k ~sbp
          in
          vars := !vars + st.Formula.vars;
          cls := !cls + st.Formula.cnf_clauses;
          pbs := !pbs + st.Formula.pb_constraints;
          gens := !gens + si.Flow.num_generators;
          time := !time +. si.Flow.detection_time;
          orders := si.Flow.order_log10 :: !orders)
        (instances opts);
      Printf.printf "%-9s %10d %10d %7d %14s %6d %8ss\n" (Sbp.name sbp) !vars
        !cls !pbs
        (Auto.order_string (log10_sum !orders))
        !gens (pct_time !time))
    Sbp.all

(* ------------------------------------------------------------------ *)
(* the sweep cell grid shared by Tables 3/4/5: one cell = one
   (instance, SBP, instance-dependent?, engine) measurement at a fixed K.
   Cells are the unit of journaling (resume skips completed ones) and of
   process isolation (--jobs races them in supervised workers). *)

type cell = {
  c_name : string;
  c_sbp : Sbp.construction;
  c_isd : bool;
  c_engine : Types.engine;
  c_k : int;
}

(* the journal key pins everything that affects a cell's numbers, so a
   resume with different parameters recomputes rather than reusing *)
let cell_key ~section ~timeout c =
  Printf.sprintf "%s|k=%d|t=%g|%s|%s|isd=%b|%s" section c.c_k timeout c.c_name
    (Sbp.name c.c_sbp) c.c_isd
    (Types.engine_name c.c_engine)

(* self-contained so it can run inside a forked worker: rebuilds the
   formula from the instance name rather than sharing parent state *)
let solve_cell ?ckpt ~node_budget ~timeout c =
  let b = Benchmarks.find c.c_name in
  let g = Lazy.force b.Benchmarks.graph in
  let f, _ =
    build_formula ~with_isd:c.c_isd ~node_budget g ~k:c.c_k ~sbp:c.c_sbp
  in
  timed_solve ?ckpt c.c_engine f timeout

(* every sweep cell measured (or reloaded from the journal) this run, in
   completion order — dumped to BENCH.json when the run finishes *)
let measured_cells : (string * cell_stats) list ref = ref []

let record_measured k cs = measured_cells := (k, cs) :: !measured_cells

(* Run every cell not already journaled; returns key -> cell_stats.
   Sequential mode reuses the built formula across consecutive cells that
   share (instance, sbp, isd); parallel mode trades that reuse for
   process-isolated workers. Cells finished during an interrupt are not
   journaled, so a resume rightly recomputes them. *)
let run_cells ~section opts cells =
  let results : (string, cell_stats) Hashtbl.t = Hashtbl.create 64 in
  let key c = cell_key ~section ~timeout:opts.timeout c in
  (* the snapshot label is the journal key: a snapshot can only resume the
     exact cell (section, instance, parameters) that wrote it *)
  let ckpt c = (opts.ckpt_dir, key c, c.c_k, opts.resume) in
  let todo =
    List.filter
      (fun c ->
        match Journal.find opts.journal (key c) with
        | Some r ->
          let fl field default =
            match List.assoc_opt field r with
            | Some s -> (try float_of_string s with _ -> default)
            | None -> default
          in
          let int field =
            match List.assoc_opt field r with
            | Some s -> (try int_of_string s with _ -> 0)
            | None -> 0
          in
          let flag field = List.assoc_opt field r = Some "true" in
          let cs =
            {
              cs_time = fl "time" opts.timeout;
              cs_solved = flag "solved";
              cs_conflicts = int "conflicts";
              cs_decisions = int "decisions";
              cs_propagations = int "propagations";
              cs_learned = int "learned";
              cs_restarts = int "restarts";
              cs_subsumed = int "subsumed";
              cs_eliminated = int "eliminated";
              cs_probed = int "probed";
              cs_substituted = int "substituted";
              cs_proof_steps = int "proof_steps";
              cs_proof_checked = flag "proof_checked";
            }
          in
          Hashtbl.replace results (key c) cs;
          record_measured (key c) cs;
          false
        | None -> true)
      cells
  in
  let n_all = List.length cells and n_todo = List.length todo in
  if n_all > n_todo then
    Printf.eprintf "bench: %s: resume skips %d/%d journaled cells\n%!" section
      (n_all - n_todo) n_all;
  let finish k cs =
    Hashtbl.replace results k cs;
    record_measured k cs;
    Journal.append opts.journal
      [
        ("key", k);
        ("time", Printf.sprintf "%.6f" cs.cs_time);
        ("solved", string_of_bool cs.cs_solved);
        ("conflicts", string_of_int cs.cs_conflicts);
        ("decisions", string_of_int cs.cs_decisions);
        ("propagations", string_of_int cs.cs_propagations);
        ("learned", string_of_int cs.cs_learned);
        ("restarts", string_of_int cs.cs_restarts);
        ("subsumed", string_of_int cs.cs_subsumed);
        ("eliminated", string_of_int cs.cs_eliminated);
        ("probed", string_of_int cs.cs_probed);
        ("substituted", string_of_int cs.cs_substituted);
        ("proof_steps", string_of_int cs.cs_proof_steps);
        ("proof_checked", string_of_bool cs.cs_proof_checked);
      ]
  in
  (match opts.daemon with
  | Some socket ->
    (* --daemon: submit each cell as a job to one or more running coloring
       daemons (comma-separated sockets) instead of solving locally — an
       end-to-end exercise of the service's admission queue under
       sustained load. With several daemons the balancer round-robins
       cells across the fleet, ejects dead daemons with capped backoff,
       and re-dispatches stranded cells on the survivors. Timings are the
       daemon's reported solve times (its queue wait excluded); the
       engine counters live in the runner processes and are recorded as
       zero. Cell keys double as job ids, so resubmitting an interrupted
       sweep re-delivers finished cells from the fleet's journals instead
       of re-solving. *)
    let fleet =
      List.filter (fun s -> s <> "") (String.split_on_char ',' socket)
    in
    let balancer = Balancer.create fleet in
    let strategy_token = function
      | Types.Pbs2 -> "pbs2"
      | Types.Pbs1 -> "pbs"
      | Types.Galena -> "galena"
      | Types.Pueblo -> "pueblo"
      | Types.Cplex -> "cplex"
    in
    List.iter
      (fun c ->
        if not (interrupt_requested ()) then begin
          let b = Benchmarks.find c.c_name in
          let g = Lazy.force b.Benchmarks.graph in
          let job =
            {
              Frame.job_id = key c;
              dimacs = Colib_graph.Dimacs_col.to_string g;
              j_k = Some c.c_k;
              deadline = opts.timeout;
              strategies = strategy_token c.c_engine;
              sbp = Sbp.name c.c_sbp;
              instance_dependent = c.c_isd;
              j_seed = 0;
            }
          in
          match Balancer.submit balancer job with
          | Ok r ->
            let solved =
              r.Frame.r_outcome = "optimal" || r.Frame.r_outcome = "unsat"
            in
            finish (key c)
              {
                cs_time =
                  (if solved then r.Frame.r_time
                   else Float.max r.Frame.r_time opts.timeout);
                cs_solved = solved;
                cs_conflicts = 0;
                cs_decisions = 0;
                cs_propagations = 0;
                cs_learned = 0;
                cs_restarts = 0;
                cs_subsumed = 0;
                cs_eliminated = 0;
                cs_probed = 0;
                cs_substituted = 0;
                cs_proof_steps = 0;
                cs_proof_checked = false;
              }
          | Error { attempts; last } ->
            Printf.eprintf
              "bench: %s: daemon gave no answer after %d attempts (%s); \
               recorded as unsolved\n%!"
              (key c) attempts
              (Client.failure_to_string last);
            finish (key c)
              {
                cs_time = opts.timeout;
                cs_solved = false;
                cs_conflicts = 0;
                cs_decisions = 0;
                cs_propagations = 0;
                cs_learned = 0;
                cs_restarts = 0;
                cs_subsumed = 0;
                cs_eliminated = 0;
                cs_probed = 0;
                cs_substituted = 0;
                cs_proof_steps = 0;
                cs_proof_checked = false;
              }
        end)
      todo
  | None ->
  if opts.jobs <= 1 then begin
    let cache = ref None in
    List.iter
      (fun c ->
        if not (interrupt_requested ()) then begin
          let ck = (c.c_name, c.c_sbp, c.c_isd, c.c_k) in
          let f =
            match !cache with
            | Some (ck', f) when ck' = ck -> f
            | _ ->
              let b = Benchmarks.find c.c_name in
              let g = Lazy.force b.Benchmarks.graph in
              let f, _ =
                build_formula ~with_isd:c.c_isd ~node_budget:opts.node_budget
                  g ~k:c.c_k ~sbp:c.c_sbp
              in
              cache := Some (ck, f);
              f
          in
          let r = timed_solve ~ckpt:(ckpt c) c.c_engine f opts.timeout in
          if not (interrupt_requested ()) then finish (key c) r
        end)
      todo
  end
  else begin
    let arr = Array.of_list todo in
    let indices = List.init (Array.length arr) (fun i -> i) in
    (* the watchdog must outlive an honest cell: solve budget + symmetry
       detection + encoding slack *)
    let watchdog = opts.timeout +. 120.0 in
    ignore
      (Portfolio.map ~jobs:opts.jobs ~watchdog
         ~should_stop:interrupt_requested
         ~on_result:(fun i r ->
           let k = key arr.(i) in
           match r with
           | Ok cs -> finish k cs
           | Error m when contains_substring m cert_failure_marker ->
             Printf.eprintf "bench: %s\n%!" m;
             exit 3
           | Error m ->
             if not (interrupt_requested ()) then begin
               Printf.eprintf
                 "bench: %s: worker failed (%s); recorded as unsolved\n%!" k
                 m;
               finish k
                 {
                   cs_time = opts.timeout;
                   cs_solved = false;
                   cs_conflicts = 0;
                   cs_decisions = 0;
                   cs_propagations = 0;
                   cs_learned = 0;
                   cs_restarts = 0;
                   cs_subsumed = 0;
                   cs_eliminated = 0;
                   cs_probed = 0;
                   cs_substituted = 0;
                   cs_proof_steps = 0;
                   cs_proof_checked = false;
                 }
             end)
         (fun i ->
           solve_cell ~ckpt:(ckpt arr.(i)) ~node_budget:opts.node_budget
             ~timeout:opts.timeout arr.(i))
         indices)
  end);
  exit_interrupted ();
  results

let cell_result results ~section ~timeout c =
  match Hashtbl.find_opt results (cell_key ~section ~timeout c) with
  | Some r -> Some r
  | None -> None

(* ------------------------------------------------------------------ *)
(* Tables 3 / 4 *)

let table34 ~k opts =
  hr
    (Printf.sprintf
       "Table %s — runtimes and #solved, %d instances, K=%d, timeout %.1fs"
       (if k <= 20 then "3" else "4")
       (List.length (instances opts))
       k opts.timeout);
  Printf.printf
    "(Orig = no instance-dependent SBPs; w/SBPs = with the Shatter-style\n\
    \ flow. Paper shape: CDCL engines gain hugely from instance-dependent\n\
    \ SBPs; simple NU/SC beat complex CA/LI; the generic B&B baseline does\n\
    \ not profit. Timeouts count as the full budget.)\n\n";
  Printf.printf "%-9s" "SBP";
  List.iter
    (fun e -> Printf.printf " | %-21s" (Types.engine_name e))
    Types.all_engines;
  Printf.printf "\n%-9s" "";
  List.iter
    (fun _ -> Printf.printf " | %9s  %9s " "Orig" "w/SBPs")
    Types.all_engines;
  Printf.printf "\n%-9s" "";
  List.iter
    (fun _ -> Printf.printf " | %6s %2s  %6s %2s " "Tm" "#S" "Tm" "#S")
    Types.all_engines;
  print_newline ();
  let section = if k <= 20 then "table3" else "table4" in
  (* enumerate in (sbp, instance, isd) blocks so the sequential runner can
     reuse each built formula across the engines of a block *)
  let cell sbp b isd engine =
    { c_name = b.Benchmarks.name; c_sbp = sbp; c_isd = isd;
      c_engine = engine; c_k = k }
  in
  let cells =
    List.concat_map
      (fun sbp ->
        List.concat_map
          (fun b ->
            List.concat_map
              (fun isd ->
                List.map (fun e -> cell sbp b isd e) Types.all_engines)
              [ false; true ])
          (instances opts))
      Sbp.all
  in
  let results = run_cells ~section opts cells in
  List.iter
    (fun sbp ->
      Printf.printf "%-9s" (Sbp.name sbp);
      List.iter
        (fun engine ->
          let agg isd =
            List.fold_left
              (fun (t, s) b ->
                match
                  cell_result results ~section ~timeout:opts.timeout
                    (cell sbp b isd engine)
                with
                | Some cs ->
                  (t +. cs.cs_time, if cs.cs_solved then s + 1 else s)
                | None -> (t, s))
              (0.0, 0) (instances opts)
          in
          let t0, s0 = agg false in
          let t1, s1 = agg true in
          Printf.printf " | %6.1f %2d  %6.1f %2d " t0 s0 t1 s1)
        Types.all_engines;
      print_newline ())
    Sbp.all

(* ------------------------------------------------------------------ *)
(* Table 5: queens, per instance, including the legacy PBS *)

let table5 opts =
  hr
    (Printf.sprintf "Table 5 — queens family, per instance, timeout %.1fs"
       opts.timeout);
  Printf.printf
    "(paper appendix shape: instance-dependent SBPs rescue the no-SBP and SC\n\
    \ rows; LI times out everywhere on the larger boards)\n";
  let engines = Types.Pbs1 :: Types.all_engines in
  let queens =
    List.filter
      (fun b -> b.Benchmarks.family = Benchmarks.Queens)
      (instances opts)
  in
  let cell b sbp isd engine =
    { c_name = b.Benchmarks.name; c_sbp = sbp; c_isd = isd;
      c_engine = engine; c_k = 20 }
  in
  let cells =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun sbp ->
            List.concat_map
              (fun isd -> List.map (fun e -> cell b sbp isd e) engines)
              [ false; true ])
          Sbp.all)
      queens
  in
  let results = run_cells ~section:"table5" opts cells in
  List.iter
    (fun b ->
      Printf.printf "\n%s (K=20)\n" b.Benchmarks.name;
      Printf.printf "  %-9s" "SBP";
      List.iter
        (fun e -> Printf.printf " | %-17s" (Types.engine_name e))
        engines;
      Printf.printf "\n  %-9s" "";
      List.iter (fun _ -> Printf.printf " | %7s  %7s " "Orig" "w/SBPs") engines;
      print_newline ();
      List.iter
        (fun sbp ->
          Printf.printf "  %-9s" (Sbp.name sbp);
          List.iter
            (fun engine ->
              let show isd =
                match
                  cell_result results ~section:"table5" ~timeout:opts.timeout
                    (cell b sbp isd engine)
                with
                | Some cs when cs.cs_solved -> Printf.sprintf "%.2f" cs.cs_time
                | Some _ -> "T/O"
                | None -> "-"
              in
              Printf.printf " | %7s  %7s " (show false) (show true))
            engines;
          print_newline ())
        Sbp.all)
    queens

(* ------------------------------------------------------------------ *)
(* Figure 1: the worked example *)

let figure1 _opts =
  hr "Figure 1 — instance-independent SBPs on the worked example";
  Printf.printf
    "Graph: V1 V2 V3 form a triangle, V4 adjacent to V3 (4 vertices, K=4).\n\
     Counting the proper 3-color assignments each construction permits:\n\n";
  let g = Graph.of_edges 4 [ (0, 1); (0, 2); (1, 2); (2, 3) ] in
  let count sbp =
    let enc = Encoding.encode g ~k:4 in
    Sbp.add sbp enc;
    let f = enc.Encoding.formula in
    let permitted = ref 0 and total = ref 0 in
    let coloring = Array.make 4 0 in
    let rec go v =
      if v = 4 then begin
        if
          Graph.is_proper_coloring g coloring
          && Graph.count_colors coloring = 3
        then begin
          incr total;
          let eng = Engine.create Types.Pbs2 (Formula.num_vars f) in
          Engine.add_formula eng f;
          for u = 0 to 3 do
            for j = 0 to 3 do
              Engine.add_clause eng
                [
                  (if coloring.(u) = j then Colib_sat.Lit.pos
                     enc.Encoding.x.(u).(j)
                   else Colib_sat.Lit.neg enc.Encoding.x.(u).(j));
                ]
            done
          done;
          match Engine.solve eng (Types.within_seconds 5.0) with
          | Types.Sat _ -> incr permitted
          | _ -> ()
        end
      end
      else
        for c = 0 to 3 do
          coloring.(v) <- c;
          go (v + 1)
        done
    in
    go 0;
    (!permitted, !total)
  in
  List.iter
    (fun sbp ->
      let p, t = count sbp in
      Printf.printf "  %-8s permits %2d of the %2d optimal (3-color) \
                     assignments\n"
        (Sbp.name sbp) p t)
    [ Sbp.No_sbp; Sbp.Nu; Sbp.Ca; Sbp.Li ];
  Printf.printf
    "\n(paper: NU restricts null colors to the tail; CA also orders by\n\
     independent-set size; LI leaves exactly one assignment per partition —\n\
     the two remaining assignments correspond to the two ways of placing V4)\n"

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablation opts =
  hr "Ablation — design choices of this implementation";
  let bench_one label f =
    let t0 = Colib_clock.Mclock.now () in
    let r = Optimize.solve_formula Types.Pbs2 f (Types.within_seconds (10.0 *. opts.timeout)) in
    Printf.printf "  %-34s %s in %.2fs\n" label
      (Format.asprintf "%a" Optimize.pp_result r)
      (Colib_clock.Mclock.now () -. t0)
  in
  let anna = Lazy.force (Benchmarks.find "anna").Benchmarks.graph in

  Printf.printf "\n[A] lex-leader chain depth (anna, K=20, SC + inst-dep):\n";
  List.iter
    (fun depth ->
      let enc = Encoding.encode anna ~k:20 in
      Sbp.add Sbp.Sc enc;
      let f = enc.Encoding.formula in
      let _, perms = Formula_graph.detect ~node_budget:opts.node_budget f in
      let n = Lex_leader.add_all ~depth f perms in
      bench_one (Printf.sprintf "depth %-8d (%5d SBP clauses)" depth n) f)
    [ 1; 4; 16; 64; max_int ];

  Printf.printf
    "\n[B] variable numbering: color-usage variables first vs last\n\
    \    (anna, K=20, SC + inst-dep SBPs — the paper's best configuration):\n";
  List.iter
    (fun y_first ->
      let enc = Encoding.encode ~y_first anna ~k:20 in
      Sbp.add Sbp.Sc enc;
      let f = enc.Encoding.formula in
      let _, perms = Formula_graph.detect ~node_budget:opts.node_budget f in
      let _ = Lex_leader.add_all f perms in
      bench_one (if y_first then "y first (ours)" else "y last (naive)") f)
    [ true; false ];

  Printf.printf
    "\n[C] what breaks the pigeonhole: K22 clique, 20 colors (chi = 22):\n";
  let k22 = Generators.complete 22 in
  List.iter
    (fun (label, sbp, isd) ->
      let f, dt =
        build_formula ~with_isd:isd ~node_budget:opts.node_budget k22 ~k:20
          ~sbp
      in
      Printf.printf "  (detection %.2fs)" dt;
      bench_one label f)
    [
      ("no SBPs", Sbp.No_sbp, false);
      ("NU+SC (inst-independent only)", Sbp.Nu_sc, false);
      ("inst-dependent SBPs", Sbp.No_sbp, true);
    ];

  Printf.printf "\n[D] engine policy spread on queen7_7 (K=20, SC + inst-dep):\n";
  let q7 = Lazy.force (Benchmarks.find "queen7_7").Benchmarks.graph in
  let f, _ = build_formula ~with_isd:true ~node_budget:opts.node_budget q7 ~k:20 ~sbp:Sbp.Sc in
  List.iter
    (fun engine ->
      let cs = timed_solve engine f (10.0 *. opts.timeout) in
      Printf.printf "  %-10s %s in %.2fs\n" (Types.engine_name engine)
        (if cs.cs_solved then "solved" else "timeout")
        cs.cs_time)
    (Types.Pbs1 :: Types.all_engines);

  Printf.printf
    "\n[E] one optimization run vs repeated decision solving (Section 4.1):\n";
  List.iter
    (fun name ->
      let g = Lazy.force (Benchmarks.find name).Benchmarks.graph in
      let opt = Colib_core.Exact_coloring.chromatic_number
          ~timeout:(10.0 *. opts.timeout) g in
      let lin = Colib_core.Exact_coloring.chromatic_number_by_search
          ~strategy:`Linear ~timeout:(10.0 *. opts.timeout) g in
      let bin = Colib_core.Exact_coloring.chromatic_number_by_search
          ~strategy:`Binary ~timeout:(10.0 *. opts.timeout) g in
      let show (a : Colib_core.Exact_coloring.answer) =
        Printf.sprintf "%s in %5.2fs"
          (match a.Colib_core.Exact_coloring.chromatic with
          | Some c -> Printf.sprintf "chi=%d" c
          | None -> Printf.sprintf "%d..%d" a.Colib_core.Exact_coloring.lower
                      a.Colib_core.Exact_coloring.upper)
          a.Colib_core.Exact_coloring.time
      in
      Printf.printf "  %-10s ILP-optimize %s | linear %s | binary %s\n" name
        (show opt) (show lin) (show bin))
    [ "myciel4"; "myciel5"; "queen6_6" ];

  Printf.printf
    "\n[F] the LI construction vs its linear prefix reformulation\n\
    \    (same orderings, same completeness, O(n^2 K) vs O(nK) clauses):\n";
  List.iter
    (fun name ->
      let g = Lazy.force (Benchmarks.find name).Benchmarks.graph in
      List.iter
        (fun sbp ->
          let enc = Encoding.encode g ~k:20 in
          Sbp.add sbp enc;
          let st = Formula.stats enc.Encoding.formula in
          let cs =
            timed_solve Types.Pbs2 enc.Encoding.formula (10.0 *. opts.timeout)
          in
          Printf.printf "  %-10s %-7s %8d clauses: %s in %.2fs\n" name
            (Sbp.name sbp) st.Formula.cnf_clauses
            (if cs.cs_solved then "solved" else "timeout")
            cs.cs_time)
        [ Sbp.Li; Sbp.Li_prefix ])
    [ "anna"; "miles250"; "queen6_6" ]

(* ------------------------------------------------------------------ *)
(* atomic table emission: with --out-dir each section prints into
   <dir>/<section>.txt.tmp with stdout redirected, and the file is renamed
   to its final name only after the section completes. An interrupt,
   certification failure, or crash mid-section exits without the rename,
   so a published table is always complete. *)

let with_stdout_to path f =
  let tmp = path ^ ".tmp" in
  let fd =
    Colib_io.Durable.openfile tmp
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved;
    (try Colib_io.Durable.fsync ~path:tmp fd with Unix.Unix_error _ -> ());
    Unix.close fd
  in
  (match f () with
  | () -> restore ()
  | exception e ->
    restore ();
    raise e);
  Colib_io.Durable.rename tmp path

let emit opts name f =
  match opts.out_dir with
  | None -> f ()
  | Some dir ->
    let path = Filename.concat dir (name ^ ".txt") in
    with_stdout_to path f;
    Printf.eprintf "bench: wrote %s\n%!" path

let run_section opts section =
  let sections =
    match section with
    | "table1" | "table2" | "table3" | "table4" | "table5" | "figure1"
    | "ablation" ->
      [ section ]
    | "all" ->
      [ "table1"; "figure1"; "table2"; "table3"; "table4"; "table5";
        "ablation" ]
    | s ->
      Printf.eprintf
        "unknown section %S (expected table1..table5, figure1, ablation, \
         all)\n"
        s;
      exit 1
  in
  List.iter
    (fun name ->
      exit_interrupted ();
      emit opts name (fun () ->
          match name with
          | "table1" -> table1 opts
          | "table2" -> table2 opts
          | "table3" -> table34 ~k:20 opts
          | "table4" -> table34 ~k:30 opts
          | "table5" -> table5 opts
          | "figure1" -> figure1 opts
          | _ -> ablation opts))
    sections

let mkdir_p dir =
  try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* machine-readable dump of every sweep cell of this run: per-cell wall
   time, the engine's counters, and the proof-trace size + replay verdict.
   Written via temp file + rename so readers never see a torn file. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* the schema tag lets downstream readers detect format changes *)
let write_bench_json path =
  let cells = List.rev !measured_cells in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"colib-bench-cells/1\",\n";
  Buffer.add_string b "  \"cells\": [";
  List.iteri
    (fun i (k, cs) ->
      if i > 0 then Buffer.add_string b ",";
      Printf.bprintf b
        "\n    {\"key\": \"%s\", \"time\": %.6f, \"solved\": %b, \
         \"conflicts\": %d, \"decisions\": %d, \"propagations\": %d, \
         \"learned\": %d, \"restarts\": %d, \"subsumed\": %d, \
         \"eliminated\": %d, \"probed\": %d, \"substituted\": %d, \
         \"proof_steps\": %d, \"proof_checked\": %b}"
        (json_escape k) cs.cs_time cs.cs_solved cs.cs_conflicts
        cs.cs_decisions cs.cs_propagations cs.cs_learned cs.cs_restarts
        cs.cs_subsumed cs.cs_eliminated cs.cs_probed cs.cs_substituted
        cs.cs_proof_steps cs.cs_proof_checked)
    cells;
  Printf.bprintf b "\n  ],\n  \"num_cells\": %d\n}\n" (List.length cells);
  Colib_io.Durable.write_file_atomic ~path (Buffer.contents b);
  Printf.eprintf "bench: wrote %s (%d cells)\n%!" path (List.length cells)

let () =
  let open Cmdliner in
  let section =
    Arg.(value & pos 0 string "all" & info [] ~docv:"SECTION")
  in
  let timeout =
    Arg.(
      value & opt float 2.0
      & info [ "timeout" ] ~docv:"S" ~doc:"Per-solve budget in seconds.")
  in
  let node_budget =
    Arg.(
      value & opt int 200_000
      & info [ "node-budget" ] ~docv:"N"
          ~doc:"Automorphism search node budget.")
  in
  let only =
    Arg.(
      value
      & opt (list string) []
      & info [ "instances" ] ~docv:"NAMES"
          ~doc:"Comma-separated instance subset (default: all 20).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Run sweep cells (tables 3/4/5) in up to $(docv) supervised \
             worker processes; a crashed or hung worker is contained and \
             its cell recorded as unsolved.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Reload the run journal, skip every already-completed sweep \
             cell, and resume partially-solved cells mid-search from their \
             snapshots in runs/<run-id>.ckpt/ (after a crash or interrupt). \
             Without this flag the journal is restarted.")
  in
  let run_id =
    Arg.(
      value & opt string "bench"
      & info [ "run-id" ] ~docv:"ID"
          ~doc:"Journal name: cells are recorded in runs/$(docv).jsonl.")
  in
  let out_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:
            "Write each section's table atomically to $(docv)/<section>.txt \
             (temp file + rename) instead of stdout.")
  in
  let daemon =
    Arg.(
      value
      & opt (some string) None
      & info [ "daemon" ] ~docv:"SOCKET,SOCKET,..."
          ~doc:
            "Submit sweep cells (tables 3/4/5) as jobs to the coloring \
             daemon(s) listening on $(docv) (paths, or tcp:PORT each) \
             instead of solving locally — exercising the admission queue \
             under sustained load. Several sockets are balanced: cells \
             round-robin across the fleet, dead daemons are ejected with \
             capped backoff, and stranded cells re-dispatch to the \
             survivors. Cell keys double as job ids, so re-running a sweep \
             re-delivers finished cells from the fleet's journals.")
  in
  let run section timeout node_budget only jobs resume run_id out_dir daemon =
    install_signal_handlers ();
    mkdir_p "runs";
    let journal_path = Filename.concat "runs" (run_id ^ ".jsonl") in
    let journal =
      if resume then Journal.load journal_path else Journal.create journal_path
    in
    (match out_dir with Some d -> mkdir_p d | None -> ());
    let ckpt_dir = Filename.concat "runs" (run_id ^ ".ckpt") in
    let opts =
      { timeout; node_budget; only; jobs; journal; out_dir; ckpt_dir; resume;
        daemon }
    in
    let t0 = Colib_clock.Mclock.now () in
    (try run_section opts section
     with Failure m when contains_substring m cert_failure_marker ->
       Printf.eprintf "bench: %s\n%!" m;
       exit 3);
    write_bench_json "BENCH.json";
    Printf.printf "\ntotal bench wall time: %.1fs\n" (Colib_clock.Mclock.now () -. t0)
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench" ~doc:"regenerate the paper's tables and figures")
      Term.(
        const run $ section $ timeout $ node_budget $ only $ jobs $ resume
        $ run_id $ out_dir $ daemon)
  in
  exit (Cmd.eval cmd)
