type work = { search_nodes : int; sat_decisions : int; heuristic_steps : int }

let no_work = { search_nodes = 0; sat_decisions = 0; heuristic_steps = 0 }
let work_total w = w.search_nodes + w.sat_decisions + w.heuristic_steps

let add_work a b =
  {
    search_nodes = a.search_nodes + b.search_nodes;
    sat_decisions = a.sat_decisions + b.sat_decisions;
    heuristic_steps = a.heuristic_steps + b.heuristic_steps;
  }

type cache_status = Hit | Miss | Bypass

let cache_status_name = function Hit -> "hit" | Miss -> "miss" | Bypass -> "bypass"

type t = {
  strategy : string;
  placement : int array;
  objective : float;
  log_product : float;
  proven_optimal : bool;
  work : work;
  cache : cache_status;
}
