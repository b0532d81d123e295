(* SAT-solver tests (unit + randomized cross-check against brute force)
   and the SMT-style mapper's agreement with the branch-and-bound
   mapper. *)

module Solver = Smt.Solver
module Rng = Mathkit.Rng

module Circuit = Ir.Circuit
module Report = Layout.Report
module Machines = Device.Machines
module Machine = Device.Machine


(* ---------- Solver basics ---------- *)

let is_sat = function Solver.Sat _ -> true | Solver.Unsat -> false

let test_solver_trivial () =
  let s = Solver.create 2 in
  Solver.add_clause s [ 1 ];
  Solver.add_clause s [ -1; 2 ];
  (match Solver.solve s with
  | Solver.Sat model ->
    Alcotest.(check bool) "x1" true model.(1);
    Alcotest.(check bool) "x2" true model.(2)
  | Solver.Unsat -> Alcotest.fail "expected sat");
  Solver.add_clause s [ -2 ];
  Alcotest.(check bool) "now unsat" false (is_sat (Solver.solve s))

let test_solver_tautology_and_duplicates () =
  let s = Solver.create 2 in
  Solver.add_clause s [ 1; -1 ];
  Alcotest.(check int) "tautology dropped" 0 (Solver.n_clauses s);
  Solver.add_clause s [ 2; 2 ];
  Alcotest.(check int) "kept once" 1 (Solver.n_clauses s);
  Alcotest.(check bool) "sat" true (is_sat (Solver.solve s))

let test_solver_validation () =
  let s = Solver.create 2 in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty clause" true (raises (fun () -> Solver.add_clause s []));
  Alcotest.(check bool) "zero literal" true (raises (fun () -> Solver.add_clause s [ 0 ]));
  Alcotest.(check bool) "out of range" true (raises (fun () -> Solver.add_clause s [ 5 ]))

let test_solver_assumptions () =
  let s = Solver.create 2 in
  Solver.add_clause s [ 1; 2 ];
  Alcotest.(check bool) "assume -1 ok" true
    (is_sat (Solver.solve ~assumptions:[ -1 ] s));
  Alcotest.(check bool) "assume both negative" false
    (is_sat (Solver.solve ~assumptions:[ -1; -2 ] s));
  (* State resets between calls. *)
  Alcotest.(check bool) "still sat afterwards" true (is_sat (Solver.solve s))

let test_solver_pigeonhole () =
  (* 3 pigeons, 2 holes: classic small UNSAT. *)
  let s = Solver.create 6 in
  let var p h = (p * 2) + h + 1 in
  for p = 0 to 2 do
    Solver.add_clause s [ var p 0; var p 1 ]
  done;
  for h = 0 to 1 do
    Solver.at_most_one s [ var 0 h; var 1 h; var 2 h ]
  done;
  Alcotest.(check bool) "unsat" false (is_sat (Solver.solve s))

let test_solver_exactly_one () =
  let s = Solver.create 3 in
  Solver.exactly_one s [ 1; 2; 3 ];
  Solver.add_clause s [ -2 ];
  Solver.add_clause s [ -3 ];
  match Solver.solve s with
  | Solver.Sat model ->
    Alcotest.(check bool) "1 forced" true model.(1);
    Alcotest.(check bool) "2 off" false model.(2)
  | Solver.Unsat -> Alcotest.fail "expected sat"

(* Randomized cross-check against brute force. *)
let brute_force n clauses =
  let rec try_assignment a =
    if a >= 1 lsl n then false
    else begin
      let value v = a land (1 lsl (v - 1)) <> 0 in
      let ok =
        List.for_all
          (List.exists (fun l -> if l > 0 then value l else not (value (-l))))
          clauses
      in
      ok || try_assignment (a + 1)
    end
  in
  try_assignment 0

let test_solver_random_cross_check () =
  let rng = Rng.create 2024 in
  for _ = 1 to 200 do
    let n = 3 + Rng.int rng 6 in
    let n_clauses = 2 + Rng.int rng (3 * n) in
    let clauses =
      List.init n_clauses (fun _ ->
          let width = 1 + Rng.int rng 3 in
          List.init width (fun _ ->
              let v = 1 + Rng.int rng n in
              if Rng.bool rng 0.5 then v else -v)
          |> List.sort_uniq compare)
    in
    (* Skip accidental tautologies for the brute-force comparison. *)
    let clauses =
      List.filter (fun c -> not (List.exists (fun l -> List.mem (-l) c) c)) clauses
    in
    if clauses <> [] then begin
      let s = Solver.create n in
      List.iter (Solver.add_clause s) clauses;
      let expected = brute_force n clauses in
      let got = is_sat (Solver.solve s) in
      if got <> expected then
        Alcotest.failf "solver disagrees with brute force (n=%d, sat=%b)" n expected;
      (* If SAT, the model must actually satisfy every clause. *)
      match Solver.solve s with
      | Solver.Sat model ->
        List.iter
          (fun clause ->
            if
              not
                (List.exists
                   (fun l -> if l > 0 then model.(l) else not model.(-l))
                   clause)
            then Alcotest.fail "model does not satisfy a clause")
          clauses
      | Solver.Unsat -> ()
    end
  done

let test_solver_push_pop () =
  let s = Solver.create 2 in
  Solver.add_clause s [ 1; 2 ];
  Solver.push s;
  Solver.add_clause s [ -1 ];
  Solver.add_clause s [ -2 ];
  Alcotest.(check int) "one scope" 1 (Solver.n_scopes s);
  Alcotest.(check bool) "scoped unsat" false (is_sat (Solver.solve s));
  Solver.pop s;
  Alcotest.(check int) "clauses restored" 1 (Solver.n_clauses s);
  Alcotest.(check bool) "sat again" true (is_sat (Solver.solve s))

let test_solver_nested_scopes () =
  let s = Solver.create 3 in
  Solver.add_clause s [ 1 ];
  Solver.push s;
  Solver.add_clause s [ 2 ];
  Solver.push s;
  Solver.add_clause s [ 3 ];
  Alcotest.(check int) "two scopes" 2 (Solver.n_scopes s);
  Alcotest.(check int) "three clauses" 3 (Solver.n_clauses s);
  Solver.pop s;
  (* The inner scope's clause is gone; the outer scope's survives. *)
  Alcotest.(check int) "inner dropped" 2 (Solver.n_clauses s);
  Solver.add_clause s [ -3 ];
  (match Solver.solve s with
  | Solver.Sat model ->
    Alcotest.(check bool) "outer clause still forces x2" true model.(2);
    Alcotest.(check bool) "inner clause forgotten" false model.(3)
  | Solver.Unsat -> Alcotest.fail "expected sat");
  Solver.pop s;
  Alcotest.(check int) "no scopes" 0 (Solver.n_scopes s);
  Alcotest.(check int) "base clause only" 1 (Solver.n_clauses s);
  Alcotest.check_raises "pop without scope"
    (Invalid_argument "Solver.pop: no open scope") (fun () -> Solver.pop s)

(* ---------- SMT mapper vs branch-and-bound mapper ---------- *)

let reliability_for machine =
  Triq.Reliability.compute ~noise_aware:true machine (Machine.calibration machine ~day:0)

let bnb_solve r c = Layout.Bb.solve (Triq.Placement.problem r c)
let smt_solve r c = Layout.Smt_search.solve (Triq.Placement.problem r c)

let test_mapper_smt_matches_bnb () =
  List.iter
    (fun (machine, (p : Bench_kit.Programs.t)) ->
      let reliability = reliability_for machine in
      let flat = Ir.Decompose.flatten p.Bench_kit.Programs.circuit in
      let bnb = bnb_solve reliability flat in
      let smt = smt_solve reliability flat in
      if Float.abs (bnb.Report.objective -. smt.Report.objective) > 1e-9 then
        Alcotest.failf "%s/%s: bnb %.6f vs smt %.6f" machine.Machine.name
          p.Bench_kit.Programs.name bnb.Report.objective smt.Report.objective)
    [
      (Machines.ibmq5, Bench_kit.Programs.bv 4);
      (Machines.ibmq5, Bench_kit.Programs.toffoli);
      (Machines.agave, Bench_kit.Programs.hidden_shift 2);
      (Machines.umdti, Bench_kit.Programs.fredkin);
      (Machines.ibmq14, Bench_kit.Programs.hidden_shift 4);
    ]

let test_mapper_smt_placement_valid () =
  let machine = Machines.ibmq14 in
  let reliability = reliability_for machine in
  let flat = Ir.Decompose.flatten (Bench_kit.Programs.bv 6).Bench_kit.Programs.circuit in
  let result = smt_solve reliability flat in
  let sorted = List.sort_uniq compare (Array.to_list result.Report.placement) in
  Alcotest.(check int) "injective" 6 (List.length sorted);
  Array.iter
    (fun h -> if h < 0 || h >= 14 then Alcotest.fail "placement out of range")
    result.Report.placement;
  Alcotest.(check bool) "exact" true result.Report.proven_optimal;
  Alcotest.(check bool) "did some work" true (result.Report.work.sat_decisions > 0)

let test_mapper_smt_usable_in_router () =
  (* The SMT placement must route and preserve semantics end to end. *)
  let machine = Machines.ibmq5 in
  let p = Bench_kit.Programs.bv 4 in
  let reliability = reliability_for machine in
  let flat = Ir.Decompose.flatten p.Bench_kit.Programs.circuit in
  let result = smt_solve reliability flat in
  let routed =
    Triq.Router.route reliability machine.Machine.topology
      ~placement:result.Report.placement flat
  in
  Alcotest.(check bool) "routed" true
    (Circuit.gate_count routed.Triq.Router.circuit > 0)

let () =
  Alcotest.run "smt"
    [
      ( "solver",
        [
          Alcotest.test_case "trivial" `Quick test_solver_trivial;
          Alcotest.test_case "tautology/duplicates" `Quick
            test_solver_tautology_and_duplicates;
          Alcotest.test_case "validation" `Quick test_solver_validation;
          Alcotest.test_case "assumptions" `Quick test_solver_assumptions;
          Alcotest.test_case "pigeonhole" `Quick test_solver_pigeonhole;
          Alcotest.test_case "exactly one" `Quick test_solver_exactly_one;
          Alcotest.test_case "random cross-check" `Quick test_solver_random_cross_check;
          Alcotest.test_case "push/pop" `Quick test_solver_push_pop;
          Alcotest.test_case "nested scopes" `Quick test_solver_nested_scopes;
        ] );
      ( "mapper_smt",
        [
          Alcotest.test_case "matches b&b objective" `Quick test_mapper_smt_matches_bnb;
          Alcotest.test_case "valid placement" `Quick test_mapper_smt_placement_valid;
          Alcotest.test_case "routes end to end" `Quick test_mapper_smt_usable_in_router;
        ] );
    ]
