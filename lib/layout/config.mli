(** Layout-engine configuration: the one typed record threaded through
    [Pass.Config] and [Pipeline] (replacing the duplicated
    [mapper_nodes]/[mapper_optimal]/[node_budget] fields). *)

type strategy = Bb | Smt | Greedy

val strategy_name : strategy -> string
val strategy_of_string : string -> strategy option
val strategy_names : string list

type t = {
  strategy : strategy;  (** which engine the mapping pass runs *)
  node_budget : int option;
      (** engine work cap (B&B nodes / SAT decisions); [None] = engine
          default (200k nodes for B&B, unlimited for SMT) *)
  cache : bool;  (** consult/populate the process-wide layout cache *)
}

val default : t
val make : ?strategy:strategy -> ?node_budget:int -> ?cache:bool -> unit -> t
