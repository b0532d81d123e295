(** Branch-and-bound placement: the paper's max-min search (Section 4.3)
    rebuilt with memoized partial-assignment bounds and dominance pruning
    over symmetric hardware qubits.

    Both added prunings are conservative: they only discard subtrees that
    provably cannot change the recorded incumbent, so results are
    bit-identical to the search without them (pinned by the golden
    pipeline fixtures). *)

val default_node_budget : int

(** [solve ?race ?seed ?node_budget problem] searches for the placement
    optimizing [problem.objective]. [seed] offers an extra starting
    incumbent (e.g. the greedy strategy's placement) through the normal
    recording rule; [race] enables cooperative cancellation polling when
    racing in a portfolio. Default budget: 200_000 nodes. *)
val solve :
  ?race:Race.t -> ?seed:int array -> ?node_budget:int -> Problem.t -> Report.t
