(** Emitters and parsers for standard solver interchange formats.

    [dimacs_cnf_string] writes the pure-CNF part of a formula in DIMACS CNF
    format (the input of black-box SAT solvers such as Chaff); it fails when
    the formula has PB constraints or an objective, because DIMACS CNF cannot
    express them. [opb_string] writes the full mixed formula in OPB format
    (the pseudo-Boolean competition format accepted by PBS-style solvers).
    Checkpoint, cube and session digests hash the OPB text, so its bytes are
    part of the format. *)

val dimacs_cnf_string : Formula.t -> string
(** Raises [Invalid_argument] when the formula has PB constraints or an
    objective function. *)

val opb_string : Formula.t -> string
(** Clauses and PB constraints (and the objective, if any) in OPB format.
    Clauses are written as [>= 1] cardinality constraints. *)

val to_opb : Format.formatter -> Formula.t -> unit
(** Print {!opb_string}. *)

val parse_dimacs_cnf : string -> Formula.t
(** Parse DIMACS CNF text. Raises [Failure] on malformed input. *)

val parse_opb : string -> Formula.t
(** Parse OPB text (the pseudo-Boolean competition subset emitted by
    {!to_opb}: an optional [min:] objective followed by [>=] / [<=] / [=]
    constraints over [x<i>] / [~x<i>] literals). Raises [Failure] on
    malformed input. [to_opb] followed by [parse_opb] reproduces an
    equivalent formula. *)
