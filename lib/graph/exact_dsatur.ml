type cut =
  | Nodes      (* node limit reached *)
  | Time       (* deadline passed *)
  | Stopped    (* the cancellation hook fired *)

type outcome =
  | Exact of int * int array
  | Bounds of int * int * int array * cut

exception Cut of cut

let solve ?(node_limit = 5_000_000) ?deadline ?cancel g =
  let n = Graph.num_vertices g in
  if n = 0 then Exact (0, [||])
  else begin
    (* capped, because max_clique polls no deadline; a cut search still
       returns a clique, so the bound and the seed below stay sound *)
    let clique = Clique.max_clique ~node_limit:1_000 g in
    let lower = Array.length clique in
    let heuristic = Dsatur.dsatur g in
    let heuristic2 = Dsatur.smallest_last g in
    let heuristic =
      if Dsatur.num_colors heuristic2 < Dsatur.num_colors heuristic then
        heuristic2
      else heuristic
    in
    let best = ref (Array.copy heuristic) in
    let best_count = ref (Dsatur.num_colors heuristic) in
    if lower = !best_count then Exact (lower, !best)
    else begin
      let coloring = Array.make n (-1) in
      (* seed: pre-color the clique, one color class each — this fixes a
         representative per color and breaks the color permutation symmetry
         (the specialized-solver counterpart of the paper's SBPs) *)
      Array.iteri (fun i v -> coloring.(v) <- i) clique;
      let nodes = ref 0 in
      let budget_cut = ref None in
      let stop cut =
        budget_cut := Some cut;
        raise (Cut cut)
      in
      let check_budget () =
        incr nodes;
        if !nodes > node_limit then stop Nodes;
        if !nodes land 255 = 0 then begin
          (match cancel with Some hook when hook () -> stop Stopped | _ -> ());
          match deadline with
          (* >= — a deadline equal to "now" (zero timeout) must fire *)
          | Some d when Colib_clock.Mclock.now () >= d -> stop Time
          | _ -> ()
        end
      in
      (* saturation = number of distinct neighbor colors *)
      let distinct_neighbor_colors v =
        let seen = Array.make !best_count false in
        let count = ref 0 in
        Array.iter
          (fun w ->
            let c = coloring.(w) in
            if c >= 0 && c < Array.length seen && not seen.(c) then begin
              seen.(c) <- true;
              incr count
            end)
          (Graph.neighbors g v);
        !count
      in
      let rec branch colored used =
        check_budget ();
        if colored = n then begin
          if used < !best_count then begin
            best_count := used;
            best := Array.copy coloring
          end
        end
        else begin
          (* DSATUR pick: max saturation, ties by degree *)
          let pick = ref (-1) and pick_sat = ref (-1) in
          for v = 0 to n - 1 do
            if coloring.(v) < 0 then begin
              let s = distinct_neighbor_colors v in
              if
                s > !pick_sat
                || (s = !pick_sat
                    && Graph.degree g v > Graph.degree g !pick)
              then begin
                pick := v;
                pick_sat := s
              end
            end
          done;
          let v = !pick in
          let forbidden = Array.make (used + 1) false in
          Array.iter
            (fun w ->
              let c = coloring.(w) in
              if c >= 0 && c <= used then forbidden.(c) <- true)
            (Graph.neighbors g v);
          (* used colors first, then one fresh color if it can still beat
             the incumbent *)
          for c = 0 to used - 1 do
            if (not forbidden.(c)) && used < !best_count then begin
              coloring.(v) <- c;
              branch (colored + 1) used;
              coloring.(v) <- -1
            end
          done;
          if used + 1 < !best_count then begin
            coloring.(v) <- used;
            branch (colored + 1) (used + 1);
            coloring.(v) <- -1
          end
        end
      in
      (* poll the budget once before searching: a pre-cancelled or
         already-expired call must not spend nodes (the root-bounds shortcut
         above is exempt — that proof is complete without any search) *)
      let entry_check () =
        (match cancel with Some hook when hook () -> stop Stopped | _ -> ());
        match deadline with
        | Some d when Colib_clock.Mclock.now () >= d -> stop Time
        | _ -> ()
      in
      (try
         entry_check ();
         branch lower lower
       with Cut _ -> ());
      match !budget_cut with
      | Some cut when lower < !best_count -> Bounds (lower, !best_count, !best, cut)
      | _ -> Exact (!best_count, !best)
    end
  end

let chromatic_number ?node_limit ?deadline ?cancel g =
  match solve ?node_limit ?deadline ?cancel g with
  | Exact (chi, _) -> Some chi
  | Bounds _ -> None
