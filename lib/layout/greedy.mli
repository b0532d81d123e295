(** Greedy degree-ordered placement: deterministic, linear-time, never
    proven optimal ([--mapper greedy]). *)

val solve : Problem.t -> Report.t
