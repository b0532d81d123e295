(** Incremental SMT placement: the descending-threshold realization of the
    max-min objective, with forbidden-placement clauses bucketed into
    per-threshold bands managed via {!Smt.Solver.push}/{!Smt.Solver.pop}
    so the structural clauses are encoded exactly once.

    Results (placement, objective, decision counts) are identical to a
    from-scratch encoding per threshold: the DPLL search depends only on
    the clause set, which is unchanged. *)

(** [solve ?race ?seed ?decision_budget problem] maximizes the minimum
    reliability threshold. [seed] (e.g. the greedy placement) raises the
    search's SAT floor to its achieved objective, skipping all thresholds
    at or below it. [decision_budget] caps total SAT decisions; exceeding
    it returns the best placement so far with [proven_optimal = false].
    The product objective is not encodable as a threshold search; the
    problem's objective field is ignored and max-min is optimized. *)
val solve :
  ?race:Race.t -> ?seed:int array -> ?decision_budget:int -> Problem.t -> Report.t
