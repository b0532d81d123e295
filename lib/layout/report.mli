(** The structured result every layout strategy returns. [work] keeps
    each engine's effort metric in its own field: B&B search nodes, SAT
    decisions and greedy steps are not comparable units. *)

type work = {
  search_nodes : int;  (** B&B assignments considered *)
  sat_decisions : int;  (** SAT branching decisions across all thresholds *)
  heuristic_steps : int;  (** greedy candidate scans *)
}

val no_work : work
val work_total : work -> int

(** How the layout cache participated in producing this report:
    [Hit] (placement served from cache), [Miss] (solved, then stored), or
    [Bypass] (cache disabled for this solve). *)
type cache_status = Hit | Miss | Bypass

val cache_status_name : cache_status -> string

type t = {
  strategy : string;  (** ["bb"], ["smt"] or ["greedy"] *)
  placement : int array;  (** program qubit -> hardware qubit *)
  objective : float;  (** min reliability over mapped 2Q ops and readouts *)
  log_product : float;  (** log of the reliability product *)
  proven_optimal : bool;  (** search space exhausted (not truncated) *)
  work : work;
  cache : cache_status;
}
