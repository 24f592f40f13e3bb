module Lit = Colib_sat.Lit
module Clause = Colib_sat.Clause
module Pbc = Colib_sat.Pbc
module Formula = Colib_sat.Formula
module Proof = Colib_sat.Proof

type failure =
  | Not_rup of int
  | Unknown_deletion of int
  | Bad_model of int * string
  | Bad_substitution of int * string
  | Bad_witness of int * string
  | No_contradiction
  | Unexpected_model
  | Cost_mismatch of { claimed : int; proved : int option }

let failure_to_string = function
  | Not_rup i ->
    Printf.sprintf "step %d is not derivable by unit propagation" i
  | Unknown_deletion i ->
    Printf.sprintf "step %d deletes a clause that is not in the database" i
  | Bad_model (i, why) -> Printf.sprintf "step %d: invalid model (%s)" i why
  | Bad_substitution (i, why) ->
    Printf.sprintf "step %d: invalid substitution (%s)" i why
  | Bad_witness (i, why) ->
    Printf.sprintf "step %d: invalid elimination witness (%s)" i why
  | No_contradiction -> "the proof never derives a contradiction"
  | Unexpected_model -> "an unsatisfiability proof exhibits a model"
  | Cost_mismatch { claimed; proved } ->
    Printf.sprintf "claimed optimum %d but the proof establishes %s" claimed
      (match proved with
      | None -> "no model at all"
      | Some c -> "optimum " ^ string_of_int c)

type verdict = {
  steps_checked : int;
  contradiction : bool;
  best_cost : int option;
}

(* --- checker state ---------------------------------------------------- *)
(* Counting-based propagation in the GRASP style, deliberately different
   from the engine's two-watched-literal scheme: every clause keeps a count
   of its non-false literal occurrences, maintained eagerly on assign and
   undo. A clause is pushed on the pending-unit stack when its count drops
   to 1 and flags a conflict when it drops to 0, so it is only scanned once
   it has gone unit, and long learned clauses cost O(1) per falsification.
   The layout is flat: clauses are ids into growable arrays (literals,
   counts, alive flags in [Bytes]), each literal's occurrences are a
   growable [int array] of clause ids, and [Delete] detaches a clause from
   those arrays. Simpler, eager, independently written. *)

type cpb = {
  p_coefs : int array;
  p_lits : int array;
  (* slack = sum of coefficients over non-false literals, minus the bound;
     the constraint is conflicting iff slack < 0, and forces literal [i]
     true as soon as [coefs.(i) > slack] *)
  mutable p_slack : int;
}

type state = {
  nvars : int;
  value : int array;   (* by variable: -1 undef / 0 false / 1 true *)
  trail : int array;   (* assigned literal indices, chronological *)
  mutable trail_size : int;
  mutable qhead : int;  (* next trail literal whose PBs are unvisited *)
  mutable nclauses : int;
  mutable lits : int array array;  (* by clause id *)
  mutable count : int array;  (* by clause id: non-false occurrences *)
  mutable alive : Bytes.t;  (* by clause id *)
  mutable units : int array;  (* pending: clause ids whose count reached 1 *)
  mutable nunits : int;
  mutable conflict : bool;  (* some live clause has count 0 *)
  occ : int array array;  (* by literal: ids of the live clauses holding it *)
  occ_len : int array;
  pb_occ : (cpb * int) list array;  (* by literal: PBs containing it *)
  index : (int list, int list ref) Hashtbl.t;  (* sorted lits -> clause ids *)
  mutable contra : bool;
}

let ivar l = l lsr 1
let icompl l = l lxor 1

let lit_val st l =
  let a = st.value.(ivar l) in
  if a < 0 then -1 else a lxor (l land 1)

let assign st l =
  st.value.(ivar l) <- 1 - (l land 1);
  st.trail.(st.trail_size) <- l;
  st.trail_size <- st.trail_size + 1;
  (* the complement just became false: constraints holding it lose slack,
     clauses holding it lose a non-false occurrence *)
  let fl = icompl l in
  List.iter (fun (pb, coef) -> pb.p_slack <- pb.p_slack - coef) st.pb_occ.(fl);
  let ids = st.occ.(fl) in
  for i = 0 to st.occ_len.(fl) - 1 do
    let c = ids.(i) in
    let n = st.count.(c) - 1 in
    st.count.(c) <- n;
    if n = 1 then begin
      st.units.(st.nunits) <- c;
      st.nunits <- st.nunits + 1
    end
    else if n = 0 then st.conflict <- true
  done

let undo_to st mark =
  while st.trail_size > mark do
    st.trail_size <- st.trail_size - 1;
    let l = st.trail.(st.trail_size) in
    let fl = icompl l in
    List.iter
      (fun (pb, coef) -> pb.p_slack <- pb.p_slack + coef)
      st.pb_occ.(fl);
    let ids = st.occ.(fl) in
    for i = 0 to st.occ_len.(fl) - 1 do
      let c = ids.(i) in
      st.count.(c) <- st.count.(c) + 1
    done;
    st.value.(ivar l) <- -1
  done;
  st.qhead <- mark;
  st.nunits <- 0;
  st.conflict <- false

(* Propagate to fixpoint; [true] on conflict. Pending units come first:
   exactly one occurrence of each is non-false, and unless it already
   satisfies the clause it is forced. *)
let propagate st =
  while (not st.conflict) && (st.nunits > 0 || st.qhead < st.trail_size) do
    if st.nunits > 0 then begin
      st.nunits <- st.nunits - 1;
      let ls = st.lits.(st.units.(st.nunits)) in
      let j = ref 0 in
      while lit_val st ls.(!j) = 0 do
        incr j
      done;
      if lit_val st ls.(!j) = -1 then assign st ls.(!j)
    end
    else begin
      let p = st.trail.(st.qhead) in
      st.qhead <- st.qhead + 1;
      List.iter
        (fun (pb, _) ->
          if st.conflict then ()
          else if pb.p_slack < 0 then st.conflict <- true
          else
            Array.iteri
              (fun i l ->
                if pb.p_coefs.(i) > pb.p_slack && lit_val st l = -1 then
                  assign st l)
              pb.p_lits)
        st.pb_occ.(icompl p)
    end
  done;
  st.nunits <- 0;
  st.conflict

let clause_key lits = List.sort_uniq compare (Array.to_list lits)

(* [a] with room for index [n] *)
let grow a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 4 (2 * n)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Permanently add a clause, then establish its root-level consequences. A
   repeated literal is stored once, so [~a; ~a] enters as the unit [~a]: a
   second occurrence would keep its count from ever reaching 1. *)
let add_clause_perm st lits =
  let key = clause_key lits in
  let lits =
    if List.length key < Array.length lits then Array.of_list key else lits
  in
  let c = st.nclauses in
  st.nclauses <- c + 1;
  st.lits <- grow st.lits c [||];
  st.count <- grow st.count c 0;
  st.units <- grow st.units c 0;
  if c >= Bytes.length st.alive then
    st.alive <- Bytes.extend st.alive 0 (Bytes.length st.alive + 1);
  st.lits.(c) <- lits;
  Bytes.set st.alive c '\001';
  let n = ref 0 and sat = ref false and unit_lit = ref (-1) in
  Array.iter
    (fun l ->
      let ids = grow st.occ.(l) st.occ_len.(l) 0 in
      ids.(st.occ_len.(l)) <- c;
      st.occ.(l) <- ids;
      st.occ_len.(l) <- st.occ_len.(l) + 1;
      match lit_val st l with
      | 0 -> ()
      | v ->
        incr n;
        if v = 1 then sat := true else unit_lit := l)
    lits;
  st.count.(c) <- !n;
  (match Hashtbl.find_opt st.index key with
  | Some r -> r := c :: !r
  | None -> Hashtbl.add st.index key (ref [ c ]));
  if not (st.contra || !sat) then
    if !n = 0 then st.contra <- true
    else if !n = 1 then begin
      assign st !unit_lit;
      if propagate st then st.contra <- true
    end

(* Permanently add a PB constraint (root level). *)
let add_pb_perm st (p : Pbc.t) =
  let plits = Array.map Lit.to_index p.Pbc.lits in
  let pb = { p_coefs = p.Pbc.coefs; p_lits = plits; p_slack = 0 } in
  let slack = ref (Pbc.slack_full p) in
  Array.iteri
    (fun i l -> if lit_val st l = 0 then slack := !slack - pb.p_coefs.(i))
    plits;
  pb.p_slack <- !slack;
  Array.iteri
    (fun i l -> st.pb_occ.(l) <- (pb, pb.p_coefs.(i)) :: st.pb_occ.(l))
    plits;
  if not st.contra then
    if pb.p_slack < 0 then st.contra <- true
    else begin
      Array.iteri
        (fun i l ->
          if pb.p_coefs.(i) > pb.p_slack && lit_val st l = -1 then
            assign st l)
        plits;
      if propagate st then st.contra <- true
    end

let init f =
  let nvars = Formula.num_vars f in
  let st =
    {
      nvars;
      value = Array.make (max nvars 1) (-1);
      trail = Array.make (max nvars 1) 0;
      trail_size = 0;
      qhead = 0;
      nclauses = 0;
      lits = [||];
      count = [||];
      alive = Bytes.empty;
      units = [||];
      nunits = 0;
      conflict = false;
      occ = Array.make (2 * max nvars 1) [||];
      occ_len = Array.make (2 * max nvars 1) 0;
      pb_occ = Array.make (2 * max nvars 1) [];
      index = Hashtbl.create 256;
      contra = Formula.trivially_unsat f;
    }
  in
  Formula.iter_clauses
    (fun c -> add_clause_perm st (Array.map Lit.to_index (Clause.lits c)))
    f;
  Formula.iter_pbs (fun p -> add_pb_perm st p) f;
  st

let in_range st lits =
  Array.for_all (fun l -> l >= 0 && l < 2 * st.nvars) lits

(* Is the clause entailed by reverse unit propagation? Root-satisfied
   clauses are trivially entailed; otherwise assume every literal false and
   propagate. The trail is rolled back either way. *)
let rup_ok st lits =
  let mark = st.trail_size in
  let entailed = ref false in
  (try
     Array.iter
       (fun l ->
         match lit_val st l with
         | 1 ->
           entailed := true;
           raise Exit
         | 0 -> ()
         | _ -> assign st (icompl l))
       lits
   with Exit -> ());
  let ok = !entailed || propagate st in
  undo_to st mark;
  ok

let is_alive st c = Bytes.get st.alive c <> '\000'

let do_delete st ~step lits =
  match Hashtbl.find_opt st.index (clause_key lits) with
  | None -> Error (Unknown_deletion step)
  | Some r -> (
    match List.find_opt (is_alive st) !r with
    | None -> Error (Unknown_deletion step)
    | Some c ->
      (* detach from every occurrence array (most recent ids sit last); root
         assignments this clause already forced stay on the trail, the
         drat-trim convention for deleted units *)
      Bytes.set st.alive c '\000';
      Array.iter
        (fun l ->
          let ids = st.occ.(l) and last = st.occ_len.(l) - 1 in
          let i = ref last in
          while ids.(!i) <> c do
            decr i
          done;
          ids.(!i) <- ids.(last);
          st.occ_len.(l) <- last)
        st.lits.(c);
      Ok ())

(* Equivalent-literal substitution: the map is only admitted if both
   directions of every equivalence are RUP in sequence; the verified
   binaries then join the database permanently, exactly mirroring what the
   engine's simplifier adds on its side.  The rewritten clauses that follow
   in the trace are then ordinary RUP [Learn]s. *)
let do_substitute st ~step pairs =
  if pairs = [] then Error (Bad_substitution (step, "empty substitution"))
  else
    let rec go = function
      | [] -> Ok ()
      | (a, b) :: rest ->
        let a = Lit.to_index a and b = Lit.to_index b in
        if a < 0 || a >= 2 * st.nvars || b < 0 || b >= 2 * st.nvars then
          Error (Bad_substitution (step, "literal out of range"))
        else if ivar a = ivar b then
          Error (Bad_substitution (step, "literal mapped to its own variable"))
        else begin
          let fwd = [| icompl a; b |] in
          if not (rup_ok st fwd) then
            Error (Bad_substitution (step, "equivalence is not entailed"))
          else begin
            add_clause_perm st fwd;
            let bwd = [| a; icompl b |] in
            if not (st.contra || rup_ok st bwd) then
              Error (Bad_substitution (step, "equivalence is not entailed"))
            else begin
              add_clause_perm st bwd;
              go rest
            end
          end
        end
    in
    go pairs

(* Variable elimination marker: structural validation only.  Every witness
   clause must contain the pivot and be live in the database right now —
   i.e. the resolvents were already learned and the originals not yet
   deleted.  The database itself is untouched; the [Delete] steps that
   follow do the removal, and model soundness is enforced separately by
   [do_improve] checking reconstructed models against the full original
   formula. *)
let do_eliminate st ~step pivot witness =
  let p = Lit.to_index pivot in
  if p < 0 || p >= 2 * st.nvars then
    Error (Bad_witness (step, "pivot out of range"))
  else if witness = [] then Error (Bad_witness (step, "empty witness"))
  else
    let rec go = function
      | [] -> Ok ()
      | lits :: rest ->
        let arr = Array.of_list (List.map Lit.to_index lits) in
        if not (in_range st arr) then
          Error (Bad_witness (step, "witness literal out of range"))
        else if not (Array.exists (fun l -> l = p) arr) then
          Error (Bad_witness (step, "witness clause misses the pivot"))
        else (
          match Hashtbl.find_opt st.index (clause_key arr) with
          | Some r when List.exists (is_alive st) !r -> go rest
          | _ -> Error (Bad_witness (step, "witness clause is not live")))
    in
    go witness

let do_improve st f ~step ~model ~cost best =
  match Formula.objective f with
  | None -> Error (Bad_model (step, "the formula has no objective"))
  | Some _ ->
    if Array.length model <> st.nvars then
      Error (Bad_model (step, "wrong model width"))
    else begin
      let value l =
        if Lit.sign l then model.(Lit.var l) else not model.(Lit.var l)
      in
      (* checked against the full original formula — deletions never weaken
         the model side, so a forged "delete a constraint, then present a
         cheaper model" proof is rejected here *)
      if not (Formula.check_model f value) then
        Error (Bad_model (step, "the model violates the formula"))
      else
        let actual = Formula.objective_value f value in
        if actual <> cost then
          Error
            (Bad_model
               ( step,
                 Printf.sprintf "declared cost %d but the objective is %d"
                   cost actual ))
        else
          match !best with
          | Some b when cost >= b ->
            Error
              (Bad_model
                 ( step,
                   Printf.sprintf
                     "cost %d does not improve on the proven bound %d" cost b
                 ))
          | _ ->
            best := Some cost;
            (* mirror the strengthening loop: every cost >= [cost] is now
               forbidden, so the final contradiction proves optimality *)
            let obj = Option.get (Formula.objective f) in
            (match Pbc.make_le obj (cost - 1) with
            | Pbc.True -> ()
            | Pbc.False -> st.contra <- true
            | Pbc.Clause ls ->
              add_clause_perm st
                (Array.of_list (List.map Lit.to_index ls))
            | Pbc.Pb p -> add_pb_perm st p);
            Ok ()
    end

let check f proof_steps =
  let st = init f in
  let best = ref None in
  let rec go i = function
    | [] ->
      Ok { steps_checked = i; contradiction = st.contra; best_cost = !best }
    | step :: rest -> (
      let r =
        (* once the empty clause is derived everything is entailed; steps
           after that point are vacuously admitted *)
        if st.contra then Ok ()
        else
          match step with
          | Proof.Learn lits ->
            let arr = Array.of_list (List.map Lit.to_index lits) in
            if not (in_range st arr) then Error (Not_rup i)
            else if rup_ok st arr then begin
              add_clause_perm st arr;
              Ok ()
            end
            else Error (Not_rup i)
          | Proof.Delete lits ->
            let arr = Array.of_list (List.map Lit.to_index lits) in
            if not (in_range st arr) then Error (Unknown_deletion i)
            else do_delete st ~step:i arr
          | Proof.Improve { model; cost } ->
            do_improve st f ~step:i ~model ~cost best
          | Proof.Substitute pairs -> do_substitute st ~step:i pairs
          | Proof.Eliminate { pivot; witness } ->
            do_eliminate st ~step:i pivot witness
          | Proof.Contradiction -> Error (Not_rup i)
      in
      match r with Ok () -> go (i + 1) rest | Error f -> Error f)
  in
  go 0 proof_steps

let check_claim f claim proof_steps =
  match check f proof_steps with
  | Error _ as e -> e
  | Ok v -> (
    match claim with
    | Proof.Unsat_claim ->
      if v.best_cost <> None then Error Unexpected_model
      else if not v.contradiction then Error No_contradiction
      else Ok v
    | Proof.Optimal_claim c ->
      if v.best_cost <> Some c then
        Error (Cost_mismatch { claimed = c; proved = v.best_cost })
      else if not v.contradiction then Error No_contradiction
      else Ok v)
