(* The bridge between the circuit/reliability world and the
   score-model-agnostic layout engine: lowers circuits to
   Layout.Problem.t, dispatches on the configured strategy, and fronts
   the process-wide layout cache.

   The cache token is the Reliability.t itself, compared physically:
   Reliability.compute_cached returns the identical matrix object for the
   same (machine, day, noise-awareness, calibration), so repeated compile
   traffic hits, while any structurally different model — including a
   same-named machine loaded from a different JSON file — misses. *)

let cache : Reliability.t Layout.Cache.t = Layout.Cache.create ~capacity:512 ()

(* Canonicalization dominates the cost of a cache hit: WL refinement with
   individualization spends its full budget on symmetric interaction
   graphs (stars, cycles). Memoize it on the raw interaction structure so
   repeated compiles of the same circuit — the sweep drivers' common
   case — skip straight to the cached form, while relabeled circuits miss
   here and fall through to the full canonization. Keyed structurally, so
   this can never alias two different placement problems. *)
let canon_memo : (int * ((int * int) * int) list * int list, Layout.Canon.t) Hashtbl.t
    =
  Hashtbl.create 64

let canon_of_problem (pr : Layout.Problem.t) =
  let key =
    (pr.Layout.Problem.n_program, pr.Layout.Problem.pairs, pr.Layout.Problem.measured)
  in
  match Hashtbl.find_opt canon_memo key with
  | Some c -> c
  | None ->
    if Hashtbl.length canon_memo >= 512 then Hashtbl.reset canon_memo;
    let c = Layout.Canon.of_problem pr in
    Hashtbl.add canon_memo key c;
    c

let interactions (c : Ir.Circuit.t) =
  let table = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun g ->
      match (g : Ir.Gate.t) with
      | Two (_, a, b) ->
        let key = if Hashtbl.mem table (b, a) then (b, a) else (a, b) in
        if not (Hashtbl.mem table key) then order := key :: !order;
        Hashtbl.replace table key (1 + Option.value ~default:0 (Hashtbl.find_opt table key))
      | Ccx _ | Cswap _ ->
        Analysis.Diag.invalid ~rule:"circuit.flat" ~layer:"mapping"
          "circuit not flattened: %s" (Ir.Gate.to_string g)
      | One _ | Measure _ -> ())
    c.Ir.Circuit.gates;
  List.rev_map (fun key -> (key, Hashtbl.find table key)) !order

let check_bounds ~n_program ~n_hardware =
  if n_program > n_hardware then
    Analysis.Diag.invalid ~rule:"circuit.bounds" ~layer:"mapping"
      "%d-qubit program does not fit a %d-qubit device" n_program n_hardware

let trivial ~n_program ~n_hardware =
  check_bounds ~n_program ~n_hardware;
  Array.init n_program (fun i -> i)

let problem ?(objective = Layout.Problem.Max_min) reliability (c : Ir.Circuit.t) =
  let n_program = c.Ir.Circuit.n_qubits in
  let n_hardware = Reliability.n_qubits reliability in
  check_bounds ~n_program ~n_hardware;
  Layout.Problem.make ~objective ~n_program ~n_hardware
    ~pairs:(interactions c)
    ~measured:(Ir.Circuit.measured_qubits c)
    ~score:(Reliability.score reliability)
    ~readout:(Reliability.readout_reliability reliability)
    ()

let run_strategy ~(config : Layout.Config.t) pr =
  let budget = config.Layout.Config.node_budget in
  match config.Layout.Config.strategy with
  | Layout.Config.Bb -> Layout.Strategy.bb.Layout.Strategy.solve ~race:None ~seed:None ~budget pr
  | Layout.Config.Smt ->
    Layout.Strategy.smt.Layout.Strategy.solve ~race:None ~seed:None ~budget pr
  | Layout.Config.Greedy ->
    Layout.Strategy.greedy.Layout.Strategy.solve ~race:None ~seed:None ~budget pr
  | Layout.Config.Portfolio -> Layout.Portfolio.solve ?budget pr

let scope ~(config : Layout.Config.t) ~machine_name ~day objective =
  String.concat "|"
    [
      Layout.Config.strategy_name config.Layout.Config.strategy;
      Layout.Problem.objective_name objective;
      (match config.Layout.Config.node_budget with
      | None -> "default"
      | Some b -> string_of_int b);
      machine_name;
      string_of_int day;
    ]

let solve ?(config = Layout.Config.default) ~reliability ~machine_name ~day
    (c : Ir.Circuit.t) : Layout.Report.t =
  let pr = problem reliability c in
  let attrs =
    [
      ("strategy", Obs.Span.Str (Layout.Config.strategy_name config.Layout.Config.strategy));
      ("machine", Obs.Span.Str machine_name);
    ]
  in
  let report, _dt =
    Obs.Span.timed ~attrs "layout.solve" (fun () ->
        if not config.Layout.Config.cache then
          { (run_strategy ~config pr) with Layout.Report.cache = Layout.Report.Bypass }
        else begin
          let canon = canon_of_problem pr in
          let scope = scope ~config ~machine_name ~day pr.Layout.Problem.objective in
          match Layout.Cache.lookup cache ~token:reliability ~scope canon with
          | Some (placement, strategy, proven_optimal) ->
            let objective, log_product = Layout.Problem.evaluate pr placement in
            {
              Layout.Report.strategy;
              placement;
              objective;
              log_product;
              proven_optimal;
              work = Layout.Report.no_work;
              cache = Layout.Report.Hit;
            }
          | None ->
            let r = run_strategy ~config pr in
            Layout.Cache.store cache ~token:reliability ~scope canon
              ~strategy:r.Layout.Report.strategy
              ~proven_optimal:r.Layout.Report.proven_optimal
              r.Layout.Report.placement;
            { r with Layout.Report.cache = Layout.Report.Miss }
        end)
  in
  report

let cache_clear () =
  Layout.Cache.clear cache;
  Hashtbl.reset canon_memo
let cache_stats () = Layout.Cache.stats cache
