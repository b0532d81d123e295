type strategy = Bb | Smt | Greedy

let strategy_name = function Bb -> "bb" | Smt -> "smt" | Greedy -> "greedy"

let strategy_of_string s =
  match String.lowercase_ascii s with
  | "bb" -> Some Bb
  | "smt" -> Some Smt
  | "greedy" -> Some Greedy
  | _ -> None

let strategy_names = [ "bb"; "smt"; "greedy" ]

type t = { strategy : strategy; node_budget : int option; cache : bool }

let default = { strategy = Bb; node_budget = None; cache = true }

let make ?(strategy = Bb) ?node_budget ?(cache = true) () =
  { strategy; node_budget; cache }
