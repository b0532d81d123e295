(** A small CDCL-free SAT solver (DPLL with two-watched-literal unit
    propagation and chronological backtracking).

    The paper formulates qubit mapping as a constrained-optimization
    problem for the Z3 SMT solver; with no Z3 bindings available in this
    environment, this module provides the satisfiability engine for an
    equivalent in-tree encoding (see [Layout.Smt_search]): the max-min
    objective becomes a descending threshold search over SAT instances,
    which is exactly how optimizing SMT solvers realize lexicographic
    max-min objectives.

    Suitable for the assignment-shaped instances the mapper produces
    (hundreds of variables, thousands of clauses). *)

type t

(** Literals are non-zero integers: [v] asserts variable [v] (1-based),
    [-v] its negation — the conventional DIMACS encoding. *)
type literal = int

(** [create n_vars] makes a solver over variables [1..n_vars]. *)
val create : int -> t

(** [add_clause t lits] conjoins a clause. Duplicate literals are merged;
    a clause containing both [v] and [-v] is dropped as a tautology.
    Raises [Invalid_argument] on the empty clause or out-of-range
    literals. *)
val add_clause : t -> literal list -> unit

type outcome =
  | Sat of bool array  (** model indexed by variable (entry 0 unused) *)
  | Unsat

(** [solve ?assumptions t] decides the formula under the optional
    assumption literals. The solver is reusable: state is reset on every
    call, and clauses persist. *)
val solve : ?assumptions:literal list -> t -> outcome

(** [push t] opens an assertion scope: clauses added after the push are
    retracted again by the matching {!pop}. Scopes nest. This is the
    incremental-solving interface the layout engine's descending-threshold
    search uses to reuse the structural (assignment-shaped) clauses across
    thresholds instead of re-encoding the formula per threshold. *)
val push : t -> unit

(** [pop t] closes the innermost assertion scope, dropping every clause
    added since the matching {!push}. Raises [Invalid_argument] when no
    scope is open. *)
val pop : t -> unit

(** [n_scopes t] is the number of currently open assertion scopes. *)
val n_scopes : t -> int

(** [n_vars t] and [n_clauses t] describe the loaded formula. *)
val n_vars : t -> int

val n_clauses : t -> int

(** [decisions t] counts branching decisions of the most recent solve —
    the work metric reported by the mapper ablation. *)
val decisions : t -> int

(** [at_most_one t lits] adds pairwise conflict clauses encoding that at
    most one of [lits] is true. *)
val at_most_one : t -> literal list -> unit

(** [exactly_one t lits] adds [at_most_one] plus the covering clause. *)
val exactly_one : t -> literal list -> unit
