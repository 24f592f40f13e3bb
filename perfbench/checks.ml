(* Output checks made independently of the program: they work on plain
   data the benchmark builds itself (its own edge lists, its own interval
   overlaps, its own clause sets) and share no code with lib/. Each returns
   [Error reason] on a wrong output; the tests in test/ corrupt outputs
   and expect exactly that. *)

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* ---------- graphs ---------- *)

(* The benchmark's own reading of DIMACS .col text: vertex count and the
   0-based edge list, both orientations merged, self-loops dropped. *)
let parse_dimacs text =
  let n = ref 0 in
  let seen = Hashtbl.create 1024 in
  let edges = ref [] in
  List.iter
    (fun line ->
      match List.filter (fun w -> w <> "") (String.split_on_char ' ' line) with
      | [ "p"; _; nv; _ ] -> n := int_of_string nv
      | [ "e"; u; v ] ->
        let u = int_of_string u - 1 and v = int_of_string v - 1 in
        let e = (min u v, max u v) in
        if u <> v && not (Hashtbl.mem seen e) then begin
          Hashtbl.add seen e ();
          edges := e :: !edges
        end
      | _ -> ())
    (String.split_on_char '\n' text);
  (!n, List.rev !edges)

let dimacs_of_edges n edges =
  let b = Buffer.create (16 * (List.length edges + 1)) in
  Printf.bprintf b "p edge %d %d\n" n (List.length edges);
  List.iter (fun (u, v) -> Printf.bprintf b "e %d %d\n" (u + 1) (v + 1)) edges;
  Buffer.contents b

(* A proper coloring of the [n]-vertex graph with these edges; returns the
   number of distinct colors it uses. *)
let coloring ~n ~edges col =
  if Array.length col <> n then
    fail "coloring has %d entries for %d vertices" (Array.length col) n
  else
    match Array.find_opt (fun c -> c < 0) col with
    | Some c -> fail "negative color %d" c
    | None -> (
      match List.find_opt (fun (u, v) -> col.(u) = col.(v)) edges with
      | Some (u, v) -> fail "edge %d-%d is monochromatic (color %d)" u v col.(u)
      | None ->
        let used = Hashtbl.create 16 in
        Array.iter (fun c -> Hashtbl.replace used c ()) col;
        Ok (Hashtbl.length used))

(* a coloring that is proper and uses exactly [chi] colors *)
let chi_coloring ~n ~edges ~chi col =
  match coloring ~n ~edges col with
  | Error e -> Error e
  | Ok used when used <> chi -> fail "coloring uses %d colors, chi is %d" used chi
  | Ok _ -> Ok ()

(* ---------- oneshot ---------- *)

type certified =
  | Chi of int * int array  (** proven optimal with this coloring *)
  | Above of int            (** refuted: no coloring within this many colors *)

(* The benchmark's own clique search: from every vertex, grow a clique
   greedily through its neighbours, highest degree first; the size of the
   largest found. A clique of more than K vertices witnesses chi > K. *)
let greedy_clique ~n ~edges =
  let adj = Array.make n [] in
  let nb = Hashtbl.create (2 * List.length edges + 1) in
  List.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v);
      Hashtbl.replace nb (u, v) ();
      Hashtbl.replace nb (v, u) ())
    edges;
  let deg v = List.length adj.(v) in
  let best = ref (min n 1) in
  for s = 0 to n - 1 do
    let cands =
      List.sort (fun a b -> compare (deg b, a) (deg a, b)) adj.(s)
    in
    let clique =
      List.fold_left
        (fun cl v ->
          if List.for_all (fun w -> Hashtbl.mem nb (v, w)) cl then v :: cl
          else cl)
        [ s ] cands
    in
    best := max !best (List.length clique)
  done;
  !best

(* [table1] is the chromatic number the paper's Table 1 lists; [None]
   where chi exceeds the color limit, which a clique of more than that
   many vertices in the benchmark's own edge list must witness. *)
let oneshot_answer ~table1 ~n ~edges answer =
  match (answer, table1) with
  | Chi (chi, col), Some t ->
    if chi <> t then fail "chi %d, Table 1 lists %d" chi t
    else chi_coloring ~n ~edges ~chi col
  | Chi (chi, _), None -> fail "chi %d, expected more than the color limit" chi
  | Above k, Some t -> fail "refuted at %d colors, Table 1 lists %d" k t
  | Above k, None ->
    let w = greedy_clique ~n ~edges in
    if w > k then Ok ()
    else fail "refuted at %d colors, but the largest clique found has %d" k w

(* ---------- session ---------- *)

(* Between two queries chi moves by at most the number of edge edits in
   between; it never drops when they only added edges and never rises
   when they only removed edges. *)
let chi_step ~prev ~next ~adds ~removes =
  let d = next - prev in
  if abs d > adds + removes then
    fail "chi moved %d -> %d over %d edge edits" prev next (adds + removes)
  else if removes = 0 && d < 0 then
    fail "chi dropped %d -> %d after only edge additions" prev next
  else if adds = 0 && d > 0 then
    fail "chi rose %d -> %d after only edge removals" prev next
  else Ok ()

(* ---------- serve ---------- *)

(* chi of an interval (live-range) conflict graph: the peak number of
   half-open intervals covering one point *)
let peak_overlap intervals =
  let events =
    List.concat_map (fun (s, e) -> [ (s, 1); (e, -1) ]) intervals
    |> List.sort (fun (a, da) (b, db) ->
           if a <> b then compare a b else compare da db)
  in
  let cur = ref 0 and peak = ref 0 in
  List.iter
    (fun (_, d) ->
      cur := !cur + d;
      if !cur > !peak then peak := !cur)
    events;
  !peak

let interval_edges intervals =
  let a = Array.of_list intervals in
  let n = Array.length a in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let s1, e1 = a.(i) and s2, e2 = a.(j) in
      if s1 < e2 && s2 < e1 then edges := (i, j) :: !edges
    done
  done;
  (n, List.rev !edges)

type reply = {
  outcome : string;
  colors : int option;
  col : int array option;
  certified : bool;
}

let job_reply ~n ~edges ~chi r =
  if r.outcome <> "optimal" then fail "outcome %S, expected optimal" r.outcome
  else if not r.certified then fail "reply not certified by the daemon"
  else
    match (r.colors, r.col) with
    | Some c, _ when c <> chi -> fail "reported %d colors, peak overlap is %d" c chi
    | Some _, Some col -> chi_coloring ~n ~edges ~chi col
    | _ -> fail "optimal reply without a coloring"

(* the daemon's cache counters against the client's own tally *)
let cache_accounting ~submitted ~resubmitted ~hits ~misses ~coalesced =
  if hits <> resubmitted then
    fail "%d cache hits for %d resubmissions" hits resubmitted
  else if hits + misses + coalesced <> submitted then
    fail "hits %d + misses %d + coalesced %d <> %d submissions" hits misses
      coalesced submitted
  else Ok ()
