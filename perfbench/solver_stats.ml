(* Engine.stats counters as per-layer counts *)

module Types = Colib_solver.Types

let counts (s : Types.stats) =
  let fi = float_of_int in
  [
    ("solver.conflicts", fi s.Types.conflicts);
    ("solver.decisions", fi s.Types.decisions);
    ("solver.propagations", fi s.Types.propagations);
    ("solver.learned", fi s.Types.learned);
    ("solver.removed", fi s.Types.removed);
    ("solver.restarts", fi s.Types.restarts);
    ("solver.subsumed", fi s.Types.subsumed);
    ("solver.eliminated", fi s.Types.eliminated);
    ("solver.probed", fi s.Types.probed);
    ("solver.substituted", fi s.Types.substituted);
  ]

(* name-wise sum of two count lists *)
let add_counts acc l =
  List.fold_left
    (fun acc (name, v) ->
      match List.assoc_opt name acc with
      | Some w -> (name, v +. w) :: List.remove_assoc name acc
      | None -> (name, v) :: acc)
    acc l
