(* The repository benchmark: one workload per run.

     perfbench --workload oneshot|session|serve --seed N
               --seconds S --trace 0|1

   Runs whole rounds of the workload's operations for S seconds, checks
   every output with the benchmark's own code, and prints as its last
   line one JSON object: correct, attempted, failed and the metrics —
   the end-to-end ones with --trace 0, the per-layer ones (from spans
   around the benchmark's calls into each layer) with --trace 1. The line
   before it carries the host context: steal ticks over the run and the
   time of a fixed reference loop. *)

open Perfbench_lib

let t_start = Util.now ()

let usage () =
  prerr_endline
    "usage: perfbench --workload oneshot|session|serve --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with Some n -> seed := n; parse rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some s when s > 0.0 -> seconds := s; parse rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := int_of_string t; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run =
    match !workload with
    | "oneshot" -> Oneshot.run
    | "session" -> Sessions.run
    | "serve" -> Serve.run
    | _ -> usage ()
  in
  let root = ".perfbench" in
  let work_dir =
    Filename.concat root (Printf.sprintf "run-%s-%d" !workload (Unix.getpid ()))
  in
  Util.mkdir_p work_dir;
  let ctx =
    { Util.seed = !seed; seconds = !seconds; traced = !trace = 1; work_dir; t_start }
  in
  let steal0 = Util.steal_ticks () in
  let r = run ctx in
  let steal1 = Util.steal_ticks () in
  let ref_s = Util.reference_loop () in
  Util.rm_rf work_dir;
  let wanted = if ctx.Util.traced then Layers.per_layer else Layers.end_to_end in
  let missing =
    List.filter
      (fun (name, _) -> not (List.exists (fun m -> m.Util.m_name = name) r.Util.metrics))
      wanted
  in
  let errors =
    r.Util.errors
    @
    if ctx.Util.traced then []
    else List.map (fun (n, _) -> "end-to-end metric not measured: " ^ n) missing
  in
  List.iter (fun e -> prerr_endline ("perfbench: check failed: " ^ e)) errors;
  if ctx.Util.traced then begin
    let dir = Filename.concat root "traces" in
    Util.mkdir_p dir;
    let path =
      Filename.concat dir (Printf.sprintf "%s-seed%d.jsonl" !workload !seed)
    in
    Trace.write path;
    Printf.printf "trace: %d spans written to %s\n" (Trace.count ()) path
  end;
  (* a layer the workload never calls did no work: it reads 0 *)
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun m -> m.Util.m_name = name) r.Util.metrics with
        | Some m -> m
        | None -> Util.m name unit 0.0)
      wanted
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"context\": {\"workload\": %s, \"seed\": %d, \"steal_ticks\": %d, \
                    \"reference_loop_s\": %s"
    (Util.json_string !workload) !seed
    (if steal0 < 0 || steal1 < 0 then -1 else steal1 - steal0)
    (Util.json_float ref_s);
  List.iter (fun (k, v) -> Printf.bprintf b ", %s: %s" (Util.json_string k) v) r.Util.context;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b);
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (errors = []) r.Util.attempted r.Util.failed;
  List.iteri
    (fun i m ->
      Printf.bprintf b "%s%s: {\"value\": %s, \"unit\": %s}"
        (if i = 0 then "" else ", ")
        (Util.json_string m.Util.m_name) (Util.json_float m.Util.m_value)
        (Util.json_string m.Util.m_unit))
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b);
  exit 0
