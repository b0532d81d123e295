(* OpenQASM 2.0 front-end tests: lexing/parsing, the qelib1 vocabulary,
   user gate definitions with parameter expressions, broadcasting,
   measurement mapping, error reporting, and semantic agreement with the
   equivalent Scaffold programs. *)

module F = Qasm.Frontend
module G = Ir.Gate
module Circuit = Ir.Circuit
module Mat = Ir.Matrices
module M = Mathkit.Matrix

let parse = F.parse

let header = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"

(* ---------- Basics ---------- *)

let test_basic_program () =
  let p = parse (header ^ "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n") in
  Alcotest.(check int) "qubits" 2 p.F.circuit.Circuit.n_qubits;
  Alcotest.(check int) "gates" 4 (Circuit.gate_count p.F.circuit);
  Alcotest.(check (list int)) "measured in cbit order" [ 0; 1 ] p.F.measured

let test_gate_vocabulary () =
  let p =
    parse
      (header
     ^ "qreg q[3];\n\
        x q[0]; y q[0]; z q[0]; h q[0]; s q[0]; sdg q[0]; t q[0]; tdg q[0];\n\
        rx(0.5) q[1]; ry(pi/2) q[1]; rz(-pi) q[1];\n\
        u1(0.1) q[2]; u2(0.1,0.2) q[2]; u3(0.1,0.2,0.3) q[2];\n\
        cz q[0],q[1]; swap q[1],q[2]; ccx q[0],q[1],q[2]; id q[0];\n")
  in
  Alcotest.(check int) "all recognized" 17 (Circuit.gate_count p.F.circuit)

let test_controlled_vocabulary () =
  let p =
    parse
      (header
     ^ "qreg q[2];\ncu1(0.3) q[0],q[1]; crz(0.4) q[0],q[1]; ch q[0],q[1];\n\
        cy q[0],q[1]; cu3(0.1,0.2,0.3) q[0],q[1]; crx(0.5) q[0],q[1]; cry(0.6) q[0],q[1];\n")
  in
  (* All expand to 1Q + CNOT primitives. *)
  List.iter
    (fun g ->
      match (g : G.t) with
      | G.One _ | G.Two (G.Cnot, _, _) -> ()
      | other -> Alcotest.failf "unexpected gate %s" (G.to_string other))
    p.F.circuit.Circuit.gates

let test_parameter_expressions () =
  let p = parse (header ^ "qreg q[1];\nrz(2*pi/4 + 1.5 - 0.5) q[0];\nrx(-pi^2/pi) q[0];\n") in
  (match p.F.circuit.Circuit.gates with
  | [ G.One (G.Rz theta, 0); G.One (G.Rx phi, 0) ] ->
    Alcotest.(check (float 1e-12)) "arith" ((Float.pi /. 2.0) +. 1.0) theta;
    Alcotest.(check (float 1e-12)) "pow and neg" (-.Float.pi) phi
  | _ -> Alcotest.fail "wrong gates")

let test_multiple_registers () =
  let p =
    parse (header ^ "qreg a[2];\nqreg b[2];\ncreg c[1];\ncx a[1],b[0];\nmeasure b[1] -> c[0];\n")
  in
  (match p.F.circuit.Circuit.gates with
  | [ G.Two (G.Cnot, 1, 2); G.Measure 3 ] -> ()
  | _ -> Alcotest.fail "registers not contiguous");
  Alcotest.(check (list (pair string int))) "names"
    [ ("a[0]", 0); ("a[1]", 1); ("b[0]", 2); ("b[1]", 3) ]
    p.F.qubit_names

let test_broadcast () =
  let p = parse (header ^ "qreg q[3];\nh q;\n") in
  Alcotest.(check int) "h on all" 3 (Circuit.one_q_count p.F.circuit);
  let p2 = parse (header ^ "qreg a[3];\nqreg b[3];\ncx a,b;\n") in
  (match p2.F.circuit.Circuit.gates with
  | [ G.Two (G.Cnot, 0, 3); G.Two (G.Cnot, 1, 4); G.Two (G.Cnot, 2, 5) ] -> ()
  | _ -> Alcotest.fail "pairwise broadcast");
  (* Scalar + register broadcast. *)
  let p3 = parse (header ^ "qreg a[1];\nqreg b[3];\ncx a,b;\n") in
  Alcotest.(check int) "scalar control" 3 (Circuit.two_q_count p3.F.circuit)

(* Register-wide measure must stay linear in the register's width. *)
let test_wide_measure () =
  let n = 20_000 in
  let src =
    Printf.sprintf "%sqreg a[1];\nqreg q[%d];\ncreg c[%d];\nh q;\nmeasure q -> c;\n" header
      n n
  in
  let t0 = Sys.time () in
  let p = parse src in
  let cpu = Sys.time () -. t0 in
  Alcotest.(check bool) "measured" true (p.F.measured = List.init n (fun i -> i + 1));
  Alcotest.(check int) "gates" (2 * n) (Circuit.gate_count p.F.circuit);
  if cpu > 1.0 then Alcotest.failf "parse took %.2f s of CPU" cpu

let test_barrier_ignored () =
  let p = parse (header ^ "qreg q[2];\nh q[0];\nbarrier q;\ncx q[0],q[1];\n") in
  Alcotest.(check int) "barrier dropped" 2 (Circuit.gate_count p.F.circuit)

let test_measure_mapping_order () =
  (* Bits follow creg declaration order, not measurement order. *)
  let p =
    parse
      (header
     ^ "qreg q[2];\ncreg c0[1];\ncreg c1[1];\nmeasure q[1] -> c1[0];\nmeasure q[0] -> c0[0];\n")
  in
  Alcotest.(check (list int)) "cbit order" [ 0; 1 ] p.F.measured

(* ---------- User gate definitions ---------- *)

let test_user_gate () =
  let p =
    parse
      (header
     ^ "gate bell a,b { h a; cx a,b; }\nqreg q[2];\ncreg c[2];\nbell q[0],q[1];\nmeasure q -> c;\n")
  in
  match p.F.circuit.Circuit.gates with
  | [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1); G.Measure 0; G.Measure 1 ] -> ()
  | _ -> Alcotest.fail "definition not expanded"

let test_user_gate_with_params () =
  let p =
    parse
      (header
     ^ "gate twist(theta) a { rz(theta/2) a; rx(theta) a; rz(-theta/2) a; }\n\
        qreg q[1];\ntwist(pi) q[0];\n")
  in
  match p.F.circuit.Circuit.gates with
  | [ G.One (G.Rz t1, 0); G.One (G.Rx t2, 0); G.One (G.Rz t3, 0) ] ->
    Alcotest.(check (float 1e-12)) "half" (Float.pi /. 2.0) t1;
    Alcotest.(check (float 1e-12)) "full" Float.pi t2;
    Alcotest.(check (float 1e-12)) "neg half" (-.Float.pi /. 2.0) t3
  | _ -> Alcotest.fail "parameters not substituted"

let test_nested_user_gates () =
  let p =
    parse
      (header
     ^ "gate flip a { x a; }\ngate double_flip a { flip a; flip a; }\n\
        qreg q[1];\ndouble_flip q[0];\n")
  in
  Alcotest.(check int) "two X" 2 (Circuit.one_q_count p.F.circuit)

let test_user_gate_semantics () =
  (* A user-defined Hadamard from rotations is unitarily a Hadamard. *)
  let p =
    parse
      (header
     ^ "gate myh a { u2(0,pi) a; }\nqreg q[1];\nmyh q[0];\n")
  in
  Alcotest.(check bool) "is hadamard" true
    (M.proportional ~eps:1e-9
       (Mat.circuit_unitary p.F.circuit)
       (Mat.one_q G.H))

(* ---------- Errors ---------- *)

let expect_error src fragment =
  match parse src with
  | exception F.Error (msg, _) ->
    let contains =
      let fl = String.length fragment and ml = String.length msg in
      let rec scan i = i + fl <= ml && (String.sub msg i fl = fragment || scan (i + 1)) in
      scan 0
    in
    if not contains then Alcotest.failf "error %S does not mention %S" msg fragment
  | _ -> Alcotest.failf "expected failure for %S" src

let test_errors () =
  expect_error "qreg q[1];" "OPENQASM";
  expect_error (header ^ "frob q[0];") "unknown";
  expect_error (header ^ "qreg q[1];\nfrob q[0];") "unknown gate";
  expect_error (header ^ "qreg q[2];\ncx q[0],q[0];") "repeated qubits";
  expect_error (header ^ "qreg q[1];\nh q[5];") "out of bounds";
  expect_error (header ^ "qreg q[2];\nqreg q[2];") "already declared";
  expect_error (header ^ "qreg q[1];\nif (c==1) x q[0];") "not supported";
  expect_error (header ^ "qreg a[2];\nqreg b[3];\ncx a,b;") "equal sizes";
  expect_error
    (header ^ "gate loop a { loop a; }\nqreg q[1];\nloop q[0];")
    "too deep";
  expect_error (header ^ "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\nmeasure q[0] -> c[0];")
    "measured twice"

(* Exact (message, line) of each error. Every source holds a single
   error, so the report does not depend on when the lexer reaches it. *)
let error_locations =
  [
    ("unterminated string", header ^ "qreg q[1];\ninclude \"other.inc;\n");
    ("unterminated multi-line string", header ^ "include \"a\nb\nc;\nqreg q[1];\n");
    ( "unexpected character after comments",
      header ^ "// a comment\n// another @ comment\nqreg q[1];\nh q[0]; @\n" );
    ( "unexpected character after CRLF and tabs",
      "OPENQASM 2.0;\r\n\tqreg q[1];\r\n\r\n\th\tq[0] $;\r\n" );
    ("real with bare exponent", header ^ "qreg q[1];\nu1(1e) q[0];\n");
    ("real with two dots", header ^ "qreg q[1];\n\nu1(1.2.3) q[0];\n");
    ("integer overflow", header ^ "qreg q[99999999999999999999];\n");
    ("integer one past max_int", header ^ "\nqreg q[4611686018427387904];\n");
    ("expected ]", header ^ "qreg q[2;\n");
    ("unterminated gate body", header ^ "gate g a {\n  h a;\n  x a;\n");
    ("unknown gate", header ^ "qreg q[2];\nh q[0];\n\nfrob q[0];\n");
  ]

let test_error_locations () =
  let outcome src =
    match parse src with
    | exception F.Error (msg, line) -> (msg, line)
    | _ -> ("no error", 0)
  in
  Alcotest.(check (list (pair string (pair string int))))
    "(message, line)"
    [
      ("unterminated string", ("unterminated string", 5));
      ("unterminated multi-line string", ("unterminated string", 7));
      ("unexpected character after comments", ("unexpected character '@'", 6));
      ("unexpected character after CRLF and tabs", ("unexpected character '$'", 4));
      ("real with bare exponent", ("bad real literal \"1e\"", 4));
      ("real with two dots", ("bad real literal \"1.2.3\"", 5));
      ("integer overflow", ("bad integer literal \"99999999999999999999\"", 3));
      ("integer one past max_int", ("bad integer literal \"4611686018427387904\"", 4));
      ("expected ]", ("expected ']'", 3));
      ("unterminated gate body", ("unterminated gate body", 6));
      ("unknown gate", ("unknown gate \"frob\"", 6));
    ]
    (List.map (fun (label, src) -> (label, outcome src)) error_locations)

(* ---------- Agreement with Scaffold front end ---------- *)

let test_matches_scaffold_bv4 () =
  let qasm =
    parse
      (header
     ^ "qreg q[4];\ncreg c[3];\nx q[3];\nh q;\ncx q[0],q[3];\ncx q[1],q[3];\n\
        cx q[2],q[3];\nh q[0];\nh q[1];\nh q[2];\nmeasure q[0] -> c[0];\n\
        measure q[1] -> c[1];\nmeasure q[2] -> c[2];\n")
  in
  let builtin = Bench_kit.Programs.bv 4 in
  let dist_qasm =
    Sim.Runner.ideal_distribution (Circuit.body qasm.F.circuit) ~measured:qasm.F.measured
  in
  let dist_builtin =
    Sim.Runner.ideal_distribution
      (Circuit.body builtin.Bench_kit.Programs.circuit)
      ~measured:[ 0; 1; 2 ]
  in
  Alcotest.(check string) "same answer" (fst (List.hd dist_builtin))
    (fst (List.hd dist_qasm))

let test_emit_program_roundtrip () =
  (* Every benchmark exported as portable QASM and re-imported must keep
     its noiseless semantics. Also exercise gates qelib1 lacks. *)
  let cases =
    List.map
      (fun (p : Bench_kit.Programs.t) ->
        (p.Bench_kit.Programs.name, p.Bench_kit.Programs.circuit,
         p.Bench_kit.Programs.spec.Ir.Spec.measured))
      (Bench_kit.Programs.all @ Bench_kit.Programs.extras)
    @ [
        ( "exotic",
          Circuit.measure_all
            (Circuit.create 2
               [
                 G.One (G.Rxy (0.7, 1.1), 0);
                 G.Two (G.Xx (Float.pi /. 4.0), 0, 1);
                 G.Two (G.Iswap, 0, 1);
               ])
            [ 0; 1 ],
          [ 0; 1 ] );
      ]
  in
  List.iter
    (fun (name, circuit, measured) ->
      let text = Backend.Qasm_emit.emit_program ~name circuit in
      let reparsed = parse text in
      let reference =
        Sim.Runner.ideal_distribution (Circuit.body circuit) ~measured
      in
      let roundtrip =
        Sim.Runner.ideal_distribution
          (Circuit.body reparsed.F.circuit)
          ~measured:reparsed.F.measured
      in
      let tvd = Sim.Dist.total_variation reference roundtrip in
      if tvd > 1e-6 then Alcotest.failf "%s: roundtrip tvd %.6f" name tvd)
    cases

let test_compiles_end_to_end () =
  let p =
    parse
      (header
     ^ "qreg q[3];\ncreg c[3];\nx q[0];\nx q[1];\nccx q[0],q[1],q[2];\nmeasure q -> c;\n")
  in
  let compiled =
    Triq.Pipeline.compile_level Device.Machines.umdti p.F.circuit
      ~level:Triq.Pipeline.OneQOptCN
  in
  let spec = Ir.Spec.deterministic p.F.measured "111" in
  let outcome = Sim.Runner.simulate ~config:(Sim.Runner.Config.make ~trajectories:150 ()) compiled spec in
  Alcotest.(check bool) "correct" true outcome.Sim.Runner.dominant_correct

let () =
  Alcotest.run "qasm"
    [
      ( "parsing",
        [
          Alcotest.test_case "basic" `Quick test_basic_program;
          Alcotest.test_case "vocabulary" `Quick test_gate_vocabulary;
          Alcotest.test_case "controlled vocabulary" `Quick test_controlled_vocabulary;
          Alcotest.test_case "parameter expressions" `Quick test_parameter_expressions;
          Alcotest.test_case "multiple registers" `Quick test_multiple_registers;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "barrier" `Quick test_barrier_ignored;
          Alcotest.test_case "measure order" `Quick test_measure_mapping_order;
          Alcotest.test_case "wide register measure" `Quick test_wide_measure;
        ] );
      ( "definitions",
        [
          Alcotest.test_case "user gate" `Quick test_user_gate;
          Alcotest.test_case "parameters" `Quick test_user_gate_with_params;
          Alcotest.test_case "nesting" `Quick test_nested_user_gates;
          Alcotest.test_case "semantics" `Quick test_user_gate_semantics;
        ] );
      ( "errors",
        [
          Alcotest.test_case "diagnostics" `Quick test_errors;
          Alcotest.test_case "error locations" `Quick test_error_locations;
        ] );
      ( "integration",
        [
          Alcotest.test_case "matches scaffold bv4" `Quick test_matches_scaffold_bv4;
          Alcotest.test_case "emit_program roundtrip" `Quick test_emit_program_roundtrip;
          Alcotest.test_case "end to end" `Quick test_compiles_end_to_end;
        ] );
    ]
