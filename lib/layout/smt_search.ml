(* Incremental SMT placement (the paper's constraint-based formulation).

   The max-min objective is realized as a binary search for the highest
   satisfiable reliability threshold over the sorted distinct score
   values — but instead of
   re-encoding the whole formula per threshold, the structural
   (assignment-shaped) clauses are asserted once and the
   forbidden-placement clauses are bucketed into per-threshold *bands*
   managed with Solver.push/pop assertion scopes. Moving the threshold is
   then a stack adjustment, not an O(pairs * H^2) re-encoding.

   Determinism: the solver's DPLL search (static decision order, unit
   propagation to closure) depends only on the clause *set*, and the band
   stack for threshold index i always holds bands 0..i in ascending
   order, so every threshold's model — and decision count — is identical
   to the from-scratch encoding the original used. *)

module Solver = Smt.Solver

let solve ?race ?seed ?decision_budget (pr : Problem.t) : Report.t =
  let n_program = pr.n_program and n_hardware = pr.n_hardware in
  let var p h = (p * n_hardware) + h + 1 in
  let total_decisions = ref 0 in
  (* Candidate thresholds: every reliability value that can constrain the
     minimum. Sorted ascending; binary search for the largest SAT one. *)
  let candidates =
    let scores = ref [] in
    for h1 = 0 to n_hardware - 1 do
      for h2 = 0 to n_hardware - 1 do
        if h1 <> h2 then scores := pr.score h1 h2 :: !scores
      done
    done;
    if pr.measured <> [] then
      for h = 0 to n_hardware - 1 do
        scores := pr.readout h :: !scores
      done;
    Array.of_list (List.sort_uniq Float.compare !scores)
  in
  let n_cand = Array.length candidates in
  (* Index of the band a clause with score [s] belongs to: the smallest
     candidate index whose threshold forbids it (thresholds forbid scores
     strictly below themselves). Clauses at the maximum score are never
     forbidden (band index n_cand, dropped). *)
  let band_of s =
    let lo = ref 0 and hi = ref n_cand in
    while !hi - !lo > 0 do
      let mid = (!lo + !hi) / 2 in
      if candidates.(mid) > s then hi := mid else lo := mid + 1
    done;
    !lo
  in
  let bands = Array.make (n_cand + 1) [] in
  let add_band s clause =
    let i = band_of s in
    if i < n_cand then bands.(i) <- clause :: bands.(i)
  in
  List.iter
    (fun ((a, b), _count) ->
      for h1 = 0 to n_hardware - 1 do
        for h2 = 0 to n_hardware - 1 do
          if h1 <> h2 then
            add_band (pr.score h1 h2) [ -var a h1; -var b h2 ]
        done
      done)
    pr.pairs;
  List.iter
    (fun m ->
      for h = 0 to n_hardware - 1 do
        add_band (pr.readout h) [ -var m h ]
      done)
    pr.measured;
  (* Per-band clause order is part of neither determinism argument nor the
     formula semantics, but keep insertion order for tidy stores. *)
  Array.iteri (fun i clauses -> bands.(i) <- List.rev clauses) bands;
  let solver = Solver.create (n_program * n_hardware) in
  (* Structure: total assignment, injective — asserted once, level 0. *)
  for p = 0 to n_program - 1 do
    Solver.exactly_one solver (List.init n_hardware (fun h -> var p h))
  done;
  for h = 0 to n_hardware - 1 do
    Solver.at_most_one solver (List.init n_program (fun p -> var p h))
  done;
  (* The assertion stack holds bands [0..depth-1]; adjusting to threshold
     index i is pop/push to depth i+1 (ascending, canonical order). *)
  let set_depth target =
    while Solver.n_scopes solver > target do
      Solver.pop solver
    done;
    while Solver.n_scopes solver < target do
      let i = Solver.n_scopes solver in
      Solver.push solver;
      List.iter (fun clause -> Solver.add_clause solver clause) bands.(i)
    done
  in
  (* satisfiable at threshold index i (-1 = structural constraints only,
     always SAT for fitting programs). *)
  let satisfiable i =
    set_depth (i + 1);
    let outcome = Solver.solve solver in
    total_decisions := !total_decisions + Solver.decisions solver;
    match outcome with
    | Solver.Sat model ->
      let placement =
        Array.init n_program (fun p ->
            let rec find h =
              if h >= n_hardware then
                invalid_arg "Layout.Smt_search: model assigns no hardware qubit"
              else if model.(var p h) then h
              else find (h + 1)
            in
            find 0)
      in
      Some placement
    | Solver.Unsat -> None
  in
  let exhausted () =
    (match decision_budget with
    | Some b -> !total_decisions > b
    | None -> false)
    || match race with Some r -> Race.cancelled r | None -> false
  in
  (* Seed: an externally supplied placement (e.g. greedy's) raises the
     binary search's SAT floor to its achieved objective without solving
     anything below it. Without a seed, start from the structural-only
     solve exactly like the original. *)
  let best_placement, lo0 =
    match seed with
    | Some s ->
      let m, _ = Problem.evaluate pr s in
      let i = ref (-1) in
      Array.iteri (fun k c -> if c <= m then i := k) candidates;
      (Array.copy s, !i)
    | None -> (
      match satisfiable (-1) with
      | Some placement -> (placement, -1)
      | None -> invalid_arg "Layout.Smt_search: unsatisfiable structure constraints")
  in
  let best_placement = ref best_placement in
  let lo = ref lo0 and hi = ref n_cand in
  let truncated = ref false in
  while (not !truncated) && !hi - !lo > 1 do
    if exhausted () then truncated := true
    else begin
      let mid = (!lo + !hi) / 2 in
      match satisfiable mid with
      | Some placement ->
        best_placement := placement;
        lo := mid
      | None -> hi := mid
    end
  done;
  (match race with
  | Some r ->
    if not !truncated then
      let m, _ = Problem.evaluate pr !best_placement in
      Race.publish r m
  | None -> ());
  let objective, log_product = Problem.evaluate pr !best_placement in
  {
    Report.strategy = "smt";
    placement = !best_placement;
    objective;
    log_product;
    proven_optimal = not !truncated;
    work = { Report.no_work with sat_decisions = !total_decisions };
    cache = Report.Bypass;
  }
