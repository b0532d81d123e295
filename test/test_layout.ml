(* Layout-engine tests: golden bit-identity of the compiled artifact
   against the pre-refactor fixture, canonical-form behaviour, cache
   semantics (also under a domain pool), agreement of the exact engines,
   and the structured-report contract. *)

module Machine = Device.Machine
module Machines = Device.Machines
module Programs = Bench_kit.Programs
module Circuit = Ir.Circuit
module G = Ir.Gate
module Report = Layout.Report
module Canon = Layout.Canon
module Cache = Layout.Cache

let reliability_for machine =
  Triq.Reliability.compute ~noise_aware:true machine (Machine.calibration machine ~day:0)

(* ---------- Golden bit-identity ---------- *)

(* Same digest as test/gen_golden: every output-relevant field of the
   compiled artifact, but not timing or search-effort metadata. *)
let digest (r : Triq.Compiled.t) =
  let payload =
    ( r.Triq.Compiled.hardware.Ir.Circuit.gates,
      r.Triq.Compiled.hardware.Ir.Circuit.n_qubits,
      r.Triq.Compiled.initial_placement,
      r.Triq.Compiled.final_placement,
      r.Triq.Compiled.readout_map,
      r.Triq.Compiled.swap_count,
      r.Triq.Compiled.two_q_count,
      r.Triq.Compiled.pulse_count,
      r.Triq.Compiled.flipped_cnots,
      r.Triq.Compiled.esp )
  in
  Digest.to_hex (Digest.string (Marshal.to_string payload []))

let machine_by_name name = List.find (fun m -> m.Machine.name = name) Machines.all
let program_by_name name = List.find (fun p -> p.Programs.name = name) Programs.all

let level_of_string_exn s =
  match Triq.Pipeline.level_of_string s with
  | Some l -> l
  | None -> Alcotest.failf "unknown level %S" s

let test_golden_bit_identity () =
  (* Every bundled benchmark x machine x level must compile to exactly the
     artifact the pre-refactor pipeline produced (digests pinned in
     layout_golden.ml before the layout engine existed). The matrix runs
     twice: the first sweep exercises cold solves (cache misses), the
     second the cache-hit path, which must reproduce the same placements
     bit-for-bit after canonical-permutation translation. *)
  Triq.Placement.cache_clear ();
  Alcotest.(check bool) "fixture is non-trivial" true
    (List.length Layout_golden.entries > 100);
  for round = 1 to 2 do
    List.iter
      (fun (machine, program, level, expected) ->
        let m = machine_by_name machine in
        let p = program_by_name program in
        let r =
          Triq.Pipeline.compile_level m p.Programs.circuit
            ~level:(level_of_string_exn level)
        in
        let got = digest r in
        if got <> expected then
          Alcotest.failf "round %d: %s/%s/%s: digest %s, expected %s" round
            machine program level got expected)
      Layout_golden.entries
  done

(* ---------- Canonical forms ---------- *)

let relabel_pairs perm pairs =
  List.map (fun ((a, b), c) -> ((perm.(a), perm.(b)), c)) pairs

let test_canon_isomorphic_relabel () =
  let pairs = [ ((0, 1), 2); ((1, 2), 1); ((2, 3), 3); ((0, 3), 1) ] in
  let measured = [ 0; 2 ] in
  List.iter
    (fun perm ->
      let a = Canon.of_interactions ~n:4 ~pairs ~measured in
      let b =
        Canon.of_interactions ~n:4
          ~pairs:(relabel_pairs perm pairs)
          ~measured:(List.map (fun q -> perm.(q)) measured)
      in
      Alcotest.(check bool) "same canonical form" true
        (Canon.equal_form a.Canon.form b.Canon.form);
      Alcotest.(check int) "same hash" a.Canon.hash b.Canon.hash)
    [ [| 3; 0; 2; 1 |]; [| 1; 2; 3; 0 |]; [| 2; 0; 3; 1 |] ]

let two_triangles =
  [ ((0, 1), 1); ((1, 2), 1); ((2, 0), 1); ((3, 4), 1); ((4, 5), 1); ((5, 3), 1) ]

let six_cycle =
  [ ((0, 1), 1); ((1, 2), 1); ((2, 3), 1); ((3, 4), 1); ((4, 5), 1); ((5, 0), 1) ]

let test_canon_near_miss () =
  (* Two directed triangles vs one directed 6-cycle: identical degree
     sequence (every qubit has out- and in-degree 1), but the graphs are
     not isomorphic, so the canonical forms must differ. *)
  let a = Canon.of_interactions ~n:6 ~pairs:two_triangles ~measured:[] in
  let b = Canon.of_interactions ~n:6 ~pairs:six_cycle ~measured:[] in
  Alcotest.(check bool) "distinct forms" false (Canon.equal_form a.Canon.form b.Canon.form)

let test_canon_measured_distinguishes () =
  (* Same edges, different measured set: distinct forms. *)
  let pairs = [ ((0, 1), 1); ((1, 2), 1) ] in
  let a = Canon.of_interactions ~n:3 ~pairs ~measured:[ 0 ] in
  let b = Canon.of_interactions ~n:3 ~pairs ~measured:[ 2 ] in
  Alcotest.(check bool) "distinct forms" false (Canon.equal_form a.Canon.form b.Canon.form)

(* ---------- The cache ---------- *)

(* A deliberately non-uniform score model so that permutation-translation
   mistakes change the objective. *)
let score a b = 0.80 +. (0.01 *. float_of_int (((a * 7) + (b * 3)) mod 13))
let readout q = 0.90 +. (0.005 *. float_of_int q)

let problem_of ?(n_hardware = 8) ~n_program pairs measured =
  Layout.Problem.make ~n_program ~n_hardware ~pairs ~measured
    ~score:(Array.init n_hardware (fun a -> Array.init n_hardware (score a)))
    ~readout:(Array.init n_hardware readout) ()

let test_cache_relabel_hit () =
  let cache = Cache.create ~capacity:8 () in
  let token = ref 0 in
  let pairs = [ ((0, 1), 2); ((1, 2), 1); ((2, 3), 3) ] in
  let perm = [| 2; 3; 1; 0 |] in
  let pr = problem_of ~n_program:4 pairs [ 3 ] in
  let pr' = problem_of ~n_program:4 (relabel_pairs perm pairs) [ perm.(3) ] in
  let a = Canon.of_problem pr and b = Canon.of_problem pr' in
  let r = Layout.Bb.solve pr in
  Cache.store cache ~token ~scope:"s" a ~proven_optimal:true r.Report.placement;
  (match Cache.lookup cache ~token ~scope:"s" b with
  | None -> Alcotest.fail "expected a hit on the isomorphic relabeling"
  | Some (placement, optimal) ->
    Alcotest.(check bool) "stored optimality" true optimal;
    let obj, log = Layout.Problem.evaluate pr' placement in
    let obj0, log0 = Layout.Problem.evaluate pr r.Report.placement in
    Alcotest.(check (float 0.)) "objective preserved by translation" obj0 obj;
    Alcotest.(check (float 0.)) "log-product preserved" log0 log);
  (* Same form under a different scope or a different (physical) token
     must miss: structural equality of tokens is not enough. *)
  Alcotest.(check bool) "scope miss" true
    (Cache.lookup cache ~token ~scope:"other" b = None);
  Alcotest.(check bool) "token miss" true
    (Cache.lookup cache ~token:(ref 0) ~scope:"s" b = None);
  let st = Cache.stats cache in
  Alcotest.(check int) "hits" 1 st.Cache.hits;
  Alcotest.(check int) "misses" 2 st.Cache.misses

let test_cache_near_miss_graphs () =
  (* Same degree sequence, different edges: must not collide. *)
  let cache = Cache.create ~capacity:8 () in
  let token = ref 0 in
  let a = Canon.of_interactions ~n:6 ~pairs:two_triangles ~measured:[] in
  let b = Canon.of_interactions ~n:6 ~pairs:six_cycle ~measured:[] in
  Cache.store cache ~token ~scope:"s" a ~proven_optimal:true [| 0; 1; 2; 3; 4; 5 |];
  Alcotest.(check bool) "near-miss graph misses" true
    (Cache.lookup cache ~token ~scope:"s" b = None)

let test_cache_lru_eviction () =
  let cache = Cache.create ~capacity:2 () in
  let token = ref 0 in
  let form_of i = Canon.of_interactions ~n:3 ~pairs:[ ((0, 1), i + 1) ] ~measured:[] in
  let store c = Cache.store cache ~token ~scope:"s" c ~proven_optimal:true [| 0; 1; 2 |] in
  let a = form_of 0 and b = form_of 1 and c = form_of 2 in
  store a;
  store b;
  (* Touch [a] so [b] is the least recently used, then overflow. *)
  ignore (Cache.lookup cache ~token ~scope:"s" a);
  store c;
  let st = Cache.stats cache in
  Alcotest.(check int) "bounded" 2 st.Cache.size;
  Alcotest.(check int) "one eviction" 1 st.Cache.evictions;
  Alcotest.(check bool) "recently used survives" true
    (Cache.lookup cache ~token ~scope:"s" a <> None);
  Alcotest.(check bool) "LRU evicted" true (Cache.lookup cache ~token ~scope:"s" b = None);
  Cache.clear cache;
  Alcotest.(check int) "cleared" 0 (Cache.stats cache).Cache.size

let cnot_circuit n pairs measured =
  Circuit.create n
    (List.map (fun (a, b) -> G.Two (G.Cnot, a, b)) pairs
    @ List.map (fun q -> G.Measure q) measured)

let test_placement_cache_hits_relabeled_circuit () =
  (* End-to-end satellite: isomorphic program relabelings must hit the
     same entry of the process-wide cache; near-miss graphs must not. *)
  Triq.Placement.cache_clear ();
  let machine = Machines.ibmq14 in
  let reliability = reliability_for machine in
  let solve c =
    Triq.Placement.solve ~reliability ~machine_name:machine.Machine.name ~day:0 c
  in
  let c1 = cnot_circuit 3 [ (0, 1); (1, 2) ] [ 2 ] in
  (* The same line relabeled by 0->2, 1->0, 2->1. *)
  let c2 = cnot_circuit 3 [ (2, 0); (0, 1) ] [ 1 ] in
  let r1 = solve c1 in
  let r2 = solve c2 in
  Alcotest.(check string) "cold solve misses" "miss" (Report.cache_status_name r1.Report.cache);
  Alcotest.(check string) "relabeling hits" "hit" (Report.cache_status_name r2.Report.cache);
  Alcotest.(check string) "hit labelled with the configured strategy" "bb" r2.Report.strategy;
  Alcotest.(check (float 0.)) "identical score" r1.Report.objective r2.Report.objective;
  (* Near-miss pair: same degree sequence, different graphs. *)
  let tri = cnot_circuit 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ] [] in
  let cyc = cnot_circuit 6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ] [] in
  let rt = solve tri in
  let rc = solve cyc in
  Alcotest.(check string) "triangles miss" "miss" (Report.cache_status_name rt.Report.cache);
  Alcotest.(check string) "cycle must not hit" "miss" (Report.cache_status_name rc.Report.cache)

let test_placement_cache_disabled () =
  let machine = Machines.ibmq5 in
  let reliability = reliability_for machine in
  let config = Layout.Config.make ~cache:false () in
  let c = cnot_circuit 2 [ (0, 1) ] [ 0; 1 ] in
  let r =
    Triq.Placement.solve ~config ~reliability ~machine_name:machine.Machine.name
      ~day:0 c
  in
  Alcotest.(check string) "bypass" "bypass" (Report.cache_status_name r.Report.cache)

let test_placement_cache_concurrent () =
  (* [Placement.solve] runs inside pool workers whenever an experiment
     grid compiles in parallel. 640 pairwise non-isomorphic interaction
     structures (directed 4-qubit paths with distinct count sequences)
     overflow both the canonical-form memo and the 512-entry cache, so
     the parallel sweep races memo inserts, memo resets and evictions.
     Every report must equal the sequential sweep's. *)
  let machine = Machines.ibmq14 in
  let reliability = reliability_for machine in
  let circuits =
    List.init 640 (fun i ->
        let gates =
          List.concat_map
            (fun (a, b, count) -> List.init count (fun _ -> G.Two (G.Cnot, a, b)))
            [ (0, 1, 1 + (i mod 8)); (1, 2, 1 + (i / 8 mod 8)); (2, 3, 1 + (i / 64)) ]
        in
        Circuit.create 4 (gates @ List.init 4 (fun q -> G.Measure q)))
  in
  let solve c =
    Triq.Placement.solve ~reliability ~machine_name:machine.Machine.name ~day:0 c
  in
  Triq.Placement.cache_clear ();
  let sequential = List.map solve circuits in
  Alcotest.(check bool) "every structure is a cold solve" true
    (List.for_all (fun (r : Report.t) -> r.Report.cache = Report.Miss) sequential);
  Alcotest.(check bool) "the cache overflowed" true
    ((Triq.Placement.cache_stats ()).Cache.evictions > 0);
  Triq.Placement.cache_clear ();
  let parallel =
    Parallel.Pool.with_pool ~jobs:4 (fun pool -> Parallel.Pool.map pool solve circuits)
  in
  List.iteri
    (fun i ((s : Report.t), (p : Report.t)) ->
      if s <> p then Alcotest.failf "structure %d: parallel report differs" i)
    (List.combine sequential parallel)

(* ---------- The exact engines ---------- *)

let problems_for tests =
  List.map
    (fun (machine, (p : Programs.t)) ->
      let reliability = reliability_for machine in
      let flat = Ir.Decompose.flatten p.Programs.circuit in
      (machine, p, Triq.Placement.problem reliability flat))
    tests

let strategy_matrix =
  [
    (Machines.ibmq5, Programs.bv 4);
    (Machines.agave, Programs.toffoli);
    (Machines.ibmq14, Programs.hidden_shift 4);
  ]

let test_strategies_agree_on_objective () =
  List.iter
    (fun (machine, (p : Programs.t), pr) ->
      let bb = Layout.Bb.solve pr in
      let smt = Layout.Smt_search.solve pr in
      let greedy = Layout.Greedy.solve pr in
      let close a b = Float.abs (a -. b) <= 1e-9 in
      if not (close bb.Report.objective smt.Report.objective) then
        Alcotest.failf "%s/%s: bb %.6f vs smt %.6f" machine.Machine.name
          p.Programs.name bb.Report.objective smt.Report.objective;
      Alcotest.(check bool) "bb proves optimality" true bb.Report.proven_optimal;
      Alcotest.(check bool) "smt proves optimality" true smt.Report.proven_optimal;
      Alcotest.(check bool) "greedy is a lower bound" true
        (greedy.Report.objective <= bb.Report.objective +. 1e-12);
      Alcotest.(check bool) "greedy never claims optimality" false
        greedy.Report.proven_optimal)
    (problems_for strategy_matrix)

(* ---------- Search work golden ---------- *)

(* Every engine's exact work and result on a fixed problem set, pinned
   so that a faster search must still be the same search: same B&B node
   count, same incumbent placement, same objective bits; same greedy
   steps and SAT decisions. Problems: every bundled benchmark that fits
   IBMQ14, IBMQ16 and Aspen-3 under both objectives, seeded random
   interaction graphs of 2-7 qubits on the same machines, and searches
   cut short by a small node budget. *)

let work_machines = [ Machines.ibmq14; Machines.ibmq16; Machines.aspen3 ]

(* A seeded random program: [n] qubits, CNOTs between random distinct
   pairs (repeats aggregate into counts), a random nonempty measured
   subset. *)
let random_interaction_circuit seed =
  let st = Random.State.make [| 0x5eed; seed |] in
  let n = 2 + (seed mod 6) in
  let n_gates = n + Random.State.int st (3 * n) in
  let cnots =
    List.init n_gates (fun _ ->
        let a = Random.State.int st n in
        let b = (a + 1 + Random.State.int st (n - 1)) mod n in
        (a, b))
  in
  let measured = List.filter (fun _ -> Random.State.bool st) (List.init n Fun.id) in
  cnot_circuit n cnots (if measured = [] then [ n - 1 ] else measured)

let work_problems () =
  let benchmarks =
    List.map
      (fun (p : Programs.t) -> (p.Programs.name, Ir.Decompose.flatten p.Programs.circuit))
      (Programs.all @ Programs.extras)
  in
  let randoms =
    List.init 12 (fun seed -> (Printf.sprintf "rand%d" seed, random_interaction_circuit seed))
  in
  List.concat_map
    (fun machine ->
      let reliability = reliability_for machine in
      List.filter_map
        (fun (name, c) ->
          if Machine.fits machine c then
            Some (machine.Machine.name ^ "/" ^ name, reliability, c)
          else None)
        (benchmarks @ randoms))
    work_machines

let show_placement pl = String.concat "," (Array.to_list (Array.map string_of_int pl))

let bb_line label (r : Report.t) =
  Printf.sprintf "%s bb nodes=%d optimal=%b placement=%s objective=%h log=%h" label
    r.Report.work.Report.search_nodes r.Report.proven_optimal
    (show_placement r.Report.placement) r.Report.objective r.Report.log_product

let work_lines () =
  let problems = work_problems () in
  let per_problem =
    List.concat_map
      (fun (label, reliability, c) ->
        let problem objective = Triq.Placement.problem ~objective reliability c in
        let mm = problem Layout.Problem.Max_min in
        let greedy = Layout.Greedy.solve mm in
        let smt = Layout.Smt_search.solve mm in
        [
          bb_line (label ^ " max-min") (Layout.Bb.solve mm);
          bb_line (label ^ " product") (Layout.Bb.solve (problem Layout.Problem.Product));
          Printf.sprintf "%s greedy steps=%d placement=%s" label
            greedy.Report.work.Report.heuristic_steps
            (show_placement greedy.Report.placement);
          Printf.sprintf "%s smt decisions=%d placement=%s" label
            smt.Report.work.Report.sat_decisions (show_placement smt.Report.placement);
        ])
      problems
  in
  (* Budget-truncated searches: the incumbent at the cut is pinned too. *)
  let truncated =
    List.concat_map
      (fun (label, budget) ->
        let _, reliability, c = List.find (fun (l, _, _) -> l = label) problems in
        List.map
          (fun objective ->
            let pr = Triq.Placement.problem ~objective reliability c in
            bb_line
              (Printf.sprintf "%s %s budget=%d" label
                 (Layout.Problem.objective_name objective) budget)
              (Layout.Bb.solve ~node_budget:budget pr))
          [ Layout.Problem.Max_min; Layout.Problem.Product ])
      [ ("IBMQ16/BV8", 500); ("Aspen3/BV8", 2_000); ("IBMQ14/rand11", 40) ]
  in
  per_problem @ truncated

let test_bb_work_golden () =
  let lines = work_lines () in
  Alcotest.(check int) "case count" (List.length Layout_work_golden.lines) (List.length lines);
  List.iter2
    (fun expected got -> Alcotest.(check string) "search work" expected got)
    Layout_work_golden.lines lines

(* ---------- Reports ---------- *)

let test_pipeline_layout_report () =
  Triq.Placement.cache_clear ();
  let machine = Machines.ibmq5 in
  let c = (Programs.bv 4).Programs.circuit in
  let r = Triq.Pipeline.compile_level machine c ~level:Triq.Pipeline.OneQOptCN in
  (match r.Triq.Compiled.layout with
  | None -> Alcotest.fail "solver levels must report a layout"
  | Some l ->
    Alcotest.(check string) "default strategy" "bb" l.Report.strategy;
    Alcotest.(check bool) "did some work" true (Report.work_total l.Report.work > 0);
    Alcotest.(check bool) "proved optimality" true l.Report.proven_optimal;
    Alcotest.(check bool) "placement recorded" true
      (l.Report.placement = r.Triq.Compiled.initial_placement));
  let rn = Triq.Pipeline.compile_level machine c ~level:Triq.Pipeline.N in
  Alcotest.(check bool) "identity mapping has no layout" true
    (rn.Triq.Compiled.layout = None)

let test_pipeline_strategy_dispatch () =
  let machine = Machines.ibmq5 in
  let c = (Programs.bv 4).Programs.circuit in
  let strategy_of mapper =
    let config = Triq.Pass.Config.make ~mapper ~layout_cache:false () in
    let r =
      Triq.Pipeline.compile_level ~config machine c ~level:Triq.Pipeline.OneQOptCN
    in
    match r.Triq.Compiled.layout with
    | None -> Alcotest.fail "expected a layout report"
    | Some l -> l.Report.strategy
  in
  Alcotest.(check string) "bb" "bb" (strategy_of Layout.Config.Bb);
  Alcotest.(check string) "smt" "smt" (strategy_of Layout.Config.Smt);
  Alcotest.(check string) "greedy" "greedy" (strategy_of Layout.Config.Greedy)

let () =
  Alcotest.run "layout"
    [
      ( "golden",
        [ Alcotest.test_case "bit identity (cold + cached)" `Quick test_golden_bit_identity ] );
      ( "canon",
        [
          Alcotest.test_case "isomorphic relabel" `Quick test_canon_isomorphic_relabel;
          Alcotest.test_case "near-miss graphs" `Quick test_canon_near_miss;
          Alcotest.test_case "measured set" `Quick test_canon_measured_distinguishes;
        ] );
      ( "cache",
        [
          Alcotest.test_case "relabel hit" `Quick test_cache_relabel_hit;
          Alcotest.test_case "near-miss graphs" `Quick test_cache_near_miss_graphs;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "pipeline relabel hit" `Quick
            test_placement_cache_hits_relabeled_circuit;
          Alcotest.test_case "bypass" `Quick test_placement_cache_disabled;
          Alcotest.test_case "concurrent solves" `Quick test_placement_cache_concurrent;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "objective agreement" `Quick test_strategies_agree_on_objective;
          Alcotest.test_case "bb work golden" `Quick test_bb_work_golden;
        ] );
      ( "reports",
        [
          Alcotest.test_case "pipeline report" `Quick test_pipeline_layout_report;
          Alcotest.test_case "strategy dispatch" `Quick test_pipeline_strategy_dispatch;
        ] );
    ]

