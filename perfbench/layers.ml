(* The metric catalogue (BENCHMARK.json lists the same names) and the
   reduction of traced rounds to per-layer metrics. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("solve_s", "s");
    ("peak_rss_mb", "MiB");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
  ]

(* one run's end-to-end metrics, named and ordered as in [end_to_end] *)
let measured ~setup_s ~wall_s ~solve_s ~peak_rss_mb ~op_p50_ms ~op_tail_ms =
  List.map2
    (fun (name, unit) v -> Util.m name unit v)
    end_to_end
    [ setup_s; wall_s; solve_s; peak_rss_mb; op_p50_ms; op_tail_ms ]

let per_layer =
  [
    ("graph.parse_s", "s");
    ("encode.encode_s", "s");
    ("encode.sbp_s", "s");
    ("encode.decode_s", "s");
    ("encode.vars", "count");
    ("encode.clauses", "count");
    ("encode.pbs", "count");
    ("symmetry.build_s", "s");
    ("symmetry.cgraph_vertices", "count");
    ("symmetry.cgraph_edges", "count");
    ("symmetry.search_s", "s");
    ("symmetry.nodes", "count");
    ("symmetry.generators", "count");
    ("symmetry.raw_generators", "count");
    ("symmetry.rejected", "count");
    ("symmetry.validate_s", "s");
    ("symmetry.lexleader_s", "s");
    ("symmetry.sbp_clauses", "count");
    ("solver.load_s", "s");
    ("solver.search_s", "s");
    ("solver.props_per_s", "1/s");
    ("solver.conflicts", "count");
    ("solver.decisions", "count");
    ("solver.propagations", "count");
    ("solver.learned", "count");
    ("solver.removed", "count");
    ("solver.restarts", "count");
    ("solver.subsumed", "count");
    ("solver.eliminated", "count");
    ("solver.probed", "count");
    ("solver.substituted", "count");
    ("sat.write_s", "s");
    ("sat.read_s", "s");
    ("sat.proof_steps", "count");
    ("sat.proof_bytes", "bytes");
    ("check.rup_s", "s");
    ("check.rup_steps", "count");
    ("check.certify_s", "s");
    ("session.apply_s", "s");
    ("session.query_s", "s");
    ("session.conflicts", "count");
    ("session.warm", "count");
    ("session.queries", "count");
    ("session.check_s", "s");
    ("server.solve_ms", "ms");
    ("server.overhead_ms", "ms");
    ("server.cache_hits", "count");
    ("server.cache_misses", "count");
    ("server.coalesced", "count");
    ("server.pool_restarts", "count");
    ("server.pool_recycles", "count");
    ("server.journal_bytes", "bytes");
    ("server.jobs", "count");
    ("trace.base_s", "s");
    ("trace.traced_s", "s");
    ("trace.overhead_pct", "%");
    ("trace.residual_s", "s");
    ("trace.spans", "count");
  ]

(* Per-layer metrics from the traced rounds: each round gives the self
   time of every span name (a span "x.y" becomes "x.y_s") and a list of
   counts; every metric is the median over rounds. [base] and [traced]
   are the untraced and traced times of the same rounds, the tracing
   overhead's base and its measure; [op_span] names the per-operation
   span whose self time is the residual the layers leave unexplained. *)
let report ~rounds ~base ~traced ~op_span =
  let per_round =
    List.map
      (fun (times, counts) ->
        let l =
          Hashtbl.fold
            (fun name v acc ->
              if name = op_span then ("trace.residual_s", v) :: acc
              else (name ^ "_s", v) :: acc)
            times counts
        in
        match
          (List.assoc_opt "solver.propagations" l, List.assoc_opt "solver.search_s" l)
        with
        | Some p, Some s when s > 0.0 -> ("solver.props_per_s", p /. s) :: l
        | _ -> l)
      rounds
  in
  let names =
    List.sort_uniq compare (List.concat_map (List.map fst) per_round)
  in
  let b = Util.median base and t = Util.median traced in
  List.map
    (fun name ->
      let u = Option.value (List.assoc_opt name per_layer) ~default:"s" in
      Util.m name u
        (Util.median (List.filter_map (List.assoc_opt name) per_round)))
    names
  @ [
      Util.m "trace.base_s" "s" b;
      Util.m "trace.traced_s" "s" t;
      Util.m "trace.overhead_pct" "%" (if b > 0.0 then (t /. b -. 1.0) *. 100.0 else 0.0);
      Util.m "trace.spans" "count"
        (float_of_int (Trace.count ()) /. float_of_int (max 1 (List.length rounds)));
    ]
