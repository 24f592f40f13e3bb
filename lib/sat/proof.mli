(** RUP/DRAT-style proof traces for the solving engines.

    A proof is an append-only sequence of steps emitted while the search
    runs. Each [Learn] step is a clause that must be derivable from the
    current constraint database by reverse unit propagation (RUP): assuming
    the negation of every literal of the clause, unit propagation alone must
    reach a conflict. [Delete] steps mirror clause-database reduction,
    [Improve] steps carry the models of the objective-strengthening loop
    (each implicitly adds the bound constraint [objective <= cost - 1]), and
    [Contradiction] asserts that the empty clause is now RUP-derivable —
    i.e. the current database is unsatisfiable by propagation alone.

    The trace is checked by {!Colib_check.Rup}, which shares only these data
    types (and the constraint normalization of {!Pbc}) with the search — not
    the propagation, analysis, or branching code. *)

type step =
  | Learn of Lit.t list
      (** add a clause; must be RUP w.r.t. the current database *)
  | Delete of Lit.t list
      (** remove a clause previously added (or an input clause) *)
  | Improve of { model : bool array; cost : int }
      (** a model of the current database with the given objective value;
          implicitly adds [objective <= cost - 1] afterwards *)
  | Substitute of (Lit.t * Lit.t) list
      (** equivalent-literal substitution: each pair [(a, b)] asserts the
          equivalence [a <-> b]. The checker verifies that both binary
          clauses [~a \/ b] and [a \/ ~b] are RUP and adds them to the
          database, after which every clause rewritten under the map is an
          ordinary RUP [Learn]. A map whose equivalences are not entailed
          is rejected. *)
  | Eliminate of { pivot : Lit.t; witness : Lit.t list list }
      (** bounded variable elimination of [Lit.var pivot]. The witness is
          the set of database clauses containing [pivot] at elimination
          time, kept for model reconstruction: a model of the simplified
          formula is extended by making [pivot] true iff some witness
          clause is otherwise falsified. The checker requires every
          witness clause to contain [pivot] and to be live in the
          database; the resolvents are logged as ordinary [Learn] steps
          before this marker and the originals as [Delete] steps after. *)
  | Contradiction
      (** the empty clause is RUP: the current database is unsatisfiable *)

type claim =
  | Unsat_claim          (** the input formula has no model *)
  | Optimal_claim of int (** the minimum objective value is exactly this *)

type t
(** A mutable, append-only step accumulator. *)

val create : unit -> t

val of_steps : step list -> t
(** A trace pre-populated with the given steps, in order — the checkpoint
    layer uses it to stitch a resumed run's new steps onto the prefix its
    snapshot preserved, yielding one continuous replayable trace. *)

val add : t -> step -> unit
val steps : t -> step list
(** Steps in emission order. *)

val num_steps : t -> int

val claim_to_string : claim -> string
val claim_of_string : string -> claim
(** Raises [Failure] on malformed input. *)

type parsed = {
  p_formula : Formula.t option;  (** the embedded OPB formula, if any *)
  p_claim : claim option;
  p_steps : step list;
}

val write_file : string -> ?formula:Formula.t -> claim:claim -> t -> unit
(** Write a self-contained proof file: a claim line [s <claim>], the formula
    in OPB format on [f ]-prefixed lines, then one text line per step:
    [l <lits> 0] (learn), [d <lits> 0] (delete), [m <cost> <model lits> 0]
    (improve), [x <a b ...> 0] (substitute, literal pairs),
    [v <pivot> <n> <n 0-terminated clauses>] (eliminate), [u]
    (contradiction); literals in DIMACS convention. *)

val of_string : string -> parsed
(** Parse the format written by {!write_file}. Raises [Failure] on malformed
    input. *)

val read_file : string -> parsed
(** [of_string] over a file's contents. Raises [Sys_error] or [Failure]. *)
