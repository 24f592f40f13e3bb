(* session: incremental re-coloring. Seeded edit streams add and remove
   edges on two fixed graphs of 100 vertices; every few edits a warm Session
   answers a chromatic-number query. Many short assumption-based solves
   that keep their learned clauses, with no symmetry detection and no
   proof file: the solver used the other way round from oneshot.

   A round opens one session per graph, loads the initial graph and
   answers its first (cold) query — untimed, except in the first round,
   where it is the set-up — then times a seeded walk of edge toggles over
   a fixed pool of pairs, with a query every [query_every] edits. The
   walk never goes back on purpose, so the graph keeps changing and the
   warm engine carries learned clauses and bounds across accumulating
   edits; the pool keeps it within [pool / 2] edges of the initial graph.
   Every round walks afresh (drawn from the seed and the round), so a run
   measures many walks rather than the hardest states of one. After the
   timed phase the first round's sessions replay their whole proofs
   through the RUP checker. A session is not kept across rounds: the
   replay grows faster than linearly with the trace, so a run-long trace
   could not be checked within the run. *)

module Session = Colib_session.Session
module Exact_dsatur = Colib_graph.Exact_dsatur
module Graph = Colib_graph.Graph
module Types = Colib_solver.Types

let graphs = 2
let vertices = 100
let initial_edges = 400
let clique = 8
let colors = 20

(* a round's script per graph: [steps] toggles of pairs drawn from a
   fixed pool (half edges of the initial graph, half non-edges), with a
   query after every [query_every] of them *)
let steps = 1000
let pool = 60
let query_every = 2
let budget = 60.0

(* the state at every [dsatur_every]-th query is re-solved by
   Exact_dsatur, which shares nothing with the SAT stack; a state it
   cannot settle within [dsatur_nodes] branch-and-bound nodes (a few
   walks reach one, and 5 million nodes take about 15 s) is checked
   against the bounds it proves instead *)
let dsatur_every = 50
let dsatur_nodes = 100_000

(* the highest percentile with at least ten samples beyond it in a run
   of ten rounds (2 graphs x 500 queries each) *)
let tail_q = 0.999

let norm u v = (min u v, max u v)

(* initial graph: a planted clique plus uniformly random edges *)
let initial rng =
  let present = Hashtbl.create 1024 in
  let add u v = if u <> v then Hashtbl.replace present (norm u v) () in
  let members = Array.init vertices Fun.id in
  for i = vertices - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = members.(i) in
    members.(i) <- members.(j);
    members.(j) <- t
  done;
  for i = 0 to clique - 1 do
    for j = i + 1 to clique - 1 do
      add members.(i) members.(j)
    done
  done;
  while Hashtbl.length present < initial_edges do
    add (Random.State.int rng vertices) (Random.State.int rng vertices)
  done;
  List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) present [])

(* the pool: [pool] pairs, half of them edges of the initial graph *)
let pool_pairs rng edges =
  let present = Hashtbl.create 1024 in
  List.iter (fun e -> Hashtbl.replace present e ()) edges;
  let arr = Array.of_list edges in
  let picked = Hashtbl.create 128 in
  let rec fill k =
    if k > 0 then
      let e =
        if k mod 2 = 0 then arr.(Random.State.int rng (Array.length arr))
        else norm (Random.State.int rng vertices) (Random.State.int rng vertices)
      in
      if fst e = snd e || Hashtbl.mem picked e
         || (k mod 2 = 1 && Hashtbl.mem present e)
      then fill k
      else begin
        Hashtbl.replace picked e ();
        fill (k - 1)
      end
  in
  fill pool;
  ( Array.of_list (List.sort compare (Hashtbl.fold (fun e () l -> e :: l) picked [])),
    present )

(* the walk over the pool: each step toggles a pair drawn at random, so
   the graph stays within [pool / 2] edges of the initial one *)
let script rng (pairs, present) =
  let present = Hashtbl.copy present and edits = ref [] in
  for _ = 1 to steps do
    let ((u, v) as e) = pairs.(Random.State.int rng (Array.length pairs)) in
    if Hashtbl.mem present e then begin
      Hashtbl.remove present e;
      edits := Session.Remove_edge (u, v) :: !edits
    end
    else begin
      Hashtbl.replace present e ();
      edits := Session.Add_edge (u, v) :: !edits
    end
  done;
  List.rev !edits

let capacity =
  { Session.max_vertices = vertices; max_colors = colors;
    max_edges = initial_edges + pool }

let query_budget () =
  { Types.no_budget with Types.deadline = Some (Util.now () +. budget) }

(* the one query error that means the query reached its budget; any
   other is a wrong answer *)
let budget_exhausted = "budget exhausted: " ^ Types.stop_reason_name Types.Deadline

type input = {
  gid : int;
  edges : (int * int) list;
  pool : (int * int) array * (int * int, unit) Hashtbl.t;
}

(* The initial graphs and their pools are fixed, the same for every seed,
   so every run loads the same graphs and visits states of the same
   family; the seed draws the walks. *)
let inputs () =
  List.init graphs (fun gid ->
      let fixed = Random.State.make [| 0x5e55; gid |] in
      let edges = initial fixed in
      { gid; edges; pool = pool_pairs fixed edges })

let walk ~seed ~index inp =
  script (Random.State.make [| seed; inp.gid; index |]) inp.pool

(* a fresh session over the initial graph, with its first query answered *)
let open_session inp =
  let sess = Session.create ~proof:true capacity in
  let ok = function Ok () -> () | Error e -> failwith ("session load: " ^ e) in
  for _ = 1 to vertices do
    ok (Session.apply sess Session.Add_vertex)
  done;
  List.iter (fun (u, v) -> ok (Session.apply sess (Session.Add_edge (u, v)))) inp.edges;
  match Session.query ~budget:(query_budget ()) sess with
  | Ok a -> (sess, a.Session.chi)
  | Error e -> failwith ("session first query: " ^ e)

let engine_counts sessions =
  List.fold_left
    (fun acc sess ->
      let sv, _ = Session.capture sess in
      Solver_stats.add_counts acc
        (Solver_stats.counts
           {
             (Types.fresh_stats ()) with
             Types.conflicts = sv.Types.sv_conflicts;
             decisions = sv.Types.sv_decisions;
             propagations = sv.Types.sv_propagations;
             learned = sv.Types.sv_learned;
             removed = sv.Types.sv_removed;
             restarts = sv.Types.sv_restarts;
             subsumed = sv.Types.sv_subsumed;
             eliminated = sv.Types.sv_eliminated;
             probed = sv.Types.sv_probed;
             substituted = sv.Types.sv_substituted;
           }))
    [] sessions

let run (ctx : Util.ctx) =
  let inputs = inputs () in
  let first_sessions = List.map open_session inputs in
  let setup_s = Util.now () -. ctx.Util.t_start in
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let query_ms = ref [] in
  let rounds_wall = ref [] and rounds_solve = ref [] in
  let base = ref [] and traced = ref [] and layer_rounds = ref [] in
  let dsatur_checks = ref 0 in
  let nrounds =
    Util.rounds ~min:(if ctx.Util.traced then 2 else 1) ctx (fun round ->
        let opened =
          if round = 0 then first_sessions else List.map open_session inputs
        in
        let sessions = List.map fst opened in
        let tracing = ctx.Util.traced && round mod 2 = 1 in
        (* a traced round repeats the walk of the untraced one before it,
           so the two time the same work *)
        let index = if ctx.Util.traced then round / 2 else round in
        let before = if tracing then engine_counts sessions else [] in
        Trace.enabled := tracing;
        let first_span = !Trace.next_id in
        let wall = ref 0.0 and solve = ref 0.0 in
        let queries = ref 0 and warm = ref 0 and conflicts = ref 0 in
        List.iter2
          (fun inp (sess, chi0) ->
            let own = Hashtbl.create 1024 in
            List.iter (fun e -> Hashtbl.replace own e ()) inp.edges;
            let last_chi = ref chi0 and adds = ref 0 and removes = ref 0 in
            let qi = ref 0 and pending = ref [] in
            let timed f =
              let r, dt = Util.time f in
              wall := !wall +. dt;
              (r, dt)
            in
            let step edits =
              incr qi;
              Trace.op "session.step" (Printf.sprintf "g%d/r%d/q%d" inp.gid round !qi)
                (fun () ->
                  List.iter
                    (fun ed ->
                      match
                        fst
                          (timed (fun () ->
                               Trace.span "session.apply" (fun () ->
                                   Session.apply sess ed)))
                      with
                      | Ok () -> ()
                      | Error e -> err "g%d: edit rejected: %s" inp.gid e)
                    edits;
                  timed (fun () ->
                      Trace.span "session.query" (fun () ->
                          Session.query ~budget:(query_budget ()) sess)))
            in
            let judge (r, dt) =
              incr attempted;
              incr queries;
              solve := !solve +. dt;
              query_ms := (dt *. 1000.0) :: !query_ms;
              match r with
              | Error e when e = budget_exhausted -> incr failed
              | Error e -> err "g%d: query failed: %s" inp.gid e
              | Ok a ->
                if a.Session.incremental then incr warm;
                conflicts := !conflicts + a.Session.conflicts;
                let chi = a.Session.chi in
                let edges = Hashtbl.fold (fun e () l -> e :: l) own [] in
                (match Checks.chi_coloring ~n:vertices ~edges ~chi a.Session.coloring with
                | Ok () -> ()
                | Error e -> err "g%d: %s" inp.gid e);
                (match
                   Checks.chi_step ~prev:!last_chi ~next:chi ~adds:!adds
                     ~removes:!removes
                 with
                | Ok () -> ()
                | Error e -> err "g%d: %s" inp.gid e);
                if !qi mod dsatur_every = 0 then begin
                  incr dsatur_checks;
                  match Exact_dsatur.solve ~node_limit:dsatur_nodes (Graph.of_edges vertices edges) with
                  | Exact_dsatur.Exact (c, _) when c <> chi ->
                    err "g%d: chi %d, Exact_dsatur says %d" inp.gid chi c
                  | Exact_dsatur.Bounds (lo, hi, _, _) when chi < lo || chi > hi ->
                    err "g%d: chi %d outside Exact_dsatur bounds [%d, %d]"
                      inp.gid chi lo hi
                  | _ -> ()
                end;
                last_chi := chi;
                adds := 0;
                removes := 0
            in
            List.iteri
              (fun i ed ->
                pending := ed :: !pending;
                (match ed with
                | Session.Add_edge (u, v) ->
                  Hashtbl.replace own (norm u v) ();
                  incr adds
                | Session.Remove_edge (u, v) ->
                  Hashtbl.remove own (norm u v);
                  incr removes
                | Session.Add_vertex -> ());
                if (i + 1) mod query_every = 0 then begin
                  let out = step (List.rev !pending) in
                  pending := [];
                  judge out
                end)
              (walk ~seed:ctx.Util.seed ~index inp))
          inputs opened;
        Trace.enabled := false;
        let counts =
          if tracing then
            let delta =
              List.map
                (fun (n, v) -> (n, v -. Option.value (List.assoc_opt n before) ~default:0.0))
                (engine_counts sessions)
            in
            ("solver.props_per_s", List.assoc "solver.propagations" delta /. !solve)
            :: delta
          else []
        in
        if tracing then begin
          traced := !wall :: !traced;
          layer_rounds :=
            ( Trace.self_times ~from:first_span (),
              counts
              @ [
                  ("session.conflicts", float_of_int !conflicts);
                  ("session.warm", float_of_int !warm);
                  ("session.queries", float_of_int !queries);
                ] )
            :: !layer_rounds
        end
        else begin
          base := !wall :: !base;
          rounds_wall := !wall :: !rounds_wall;
          rounds_solve := !solve :: !rounds_solve
        end)
  in
  (* after the timed phase, the first round's sessions replay their whole
     proofs *)
  let check_s =
    Util.sum
      (List.map2
         (fun inp (sess, _) ->
           let r, dt = Util.time (fun () -> Session.check_proof sess) in
           (match r with
           | Ok _ -> ()
           | Error e -> err "g%d: session proof rejected: %s" inp.gid e);
           dt)
         inputs first_sessions)
  in
  let metrics =
    if ctx.Util.traced then
      Util.m "session.check_s" "s" check_s
      :: Layers.report ~rounds:!layer_rounds ~base:!base ~traced:!traced
           ~op_span:"session.step"
    else
      Layers.measured ~setup_s ~wall_s:(Util.median !rounds_wall)
        ~solve_s:(Util.median !rounds_solve)
        ~peak_rss_mb:(Util.self_peak_rss_mb ())
        ~op_p50_ms:(Util.percentile !query_ms 0.5)
        ~op_tail_ms:(Util.percentile !query_ms tail_q)
  in
  let n = List.length !query_ms in
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
        ("dsatur_checks", string_of_int !dsatur_checks);
        ("proof_check_s", Util.json_float check_s);
      ];
  }
