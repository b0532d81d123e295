module T = Text_out

let qubit out q =
  T.string out "q[";
  T.int out q;
  T.char out ']'

(* The last operand and the statement's end. *)
let last out q =
  qubit out q;
  T.string out ";\n"

let gate out name a =
  T.string out name;
  T.char out ' ';
  last out a

let gate2 out name a b =
  T.string out name;
  T.char out ' ';
  qubit out a;
  T.char out ',';
  last out b

let gate3 out name a b c =
  T.string out name;
  T.char out ' ';
  qubit out a;
  T.char out ',';
  qubit out b;
  T.char out ',';
  last out c

(* [name(angle,...) q[a];] with one, two or three angles. *)
let rotation out name t a =
  T.string out name;
  T.char out '(';
  T.angle out t;
  T.string out ") ";
  last out a

let rotation2 out name t p a =
  T.string out name;
  T.char out '(';
  T.angle out t;
  T.char out ',';
  T.angle out p;
  T.string out ") ";
  last out a

let rotation3 out name t p l a =
  T.string out name;
  T.char out '(';
  T.angle out t;
  T.char out ',';
  T.angle out p;
  T.char out ',';
  T.angle out l;
  T.string out ") ";
  last out a

let measure out q cbit =
  T.string out "measure ";
  qubit out q;
  T.string out " -> c[";
  T.int out cbit;
  T.string out "];\n"

(* The preamble up to the header comment's text, which the caller
   writes; [declare] ends the comment and declares the registers. *)
let preamble c =
  let out = T.create ~gates:(Ir.Circuit.gate_count c) in
  T.string out "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n// ";
  out

let declare out ~n_qubits c =
  T.string out "\nqreg q[";
  T.int out n_qubits;
  T.string out "];\n";
  let n = Ir.Circuit.measure_count c in
  if n > 0 then begin
    T.string out "creg c[";
    T.int out n;
    T.string out "];\n"
  end

let render out ~n_qubits (c : Ir.Circuit.t) =
  declare out ~n_qubits c;
  let next_cbit = ref 0 in
  List.iter
    (fun (g : Ir.Gate.t) ->
      match g with
      | One (U1 l, q) -> rotation out "u1" l q
      | One (U2 (p, l), q) -> rotation2 out "u2" p l q
      | One (U3 (t, p, l), q) -> rotation3 out "u3" t p l q
      | Two (Cnot, a, b) -> gate2 out "cx" a b
      | Measure q ->
        measure out q !next_cbit;
        incr next_cbit
      | other ->
        invalid_arg
          (Printf.sprintf "Qasm_emit: gate %s is not IBM software-visible"
             (Ir.Gate.to_string other)))
    c.Ir.Circuit.gates;
  T.contents out

let emit_circuit ~n_qubits ~name (c : Ir.Circuit.t) =
  let out = preamble c in
  T.string out name;
  render out ~n_qubits c

let emit (compiled : Triq.Compiled.t) =
  if compiled.Triq.Compiled.machine.Device.Machine.basis <> Device.Gateset.Ibm_visible
  then invalid_arg "Qasm_emit.emit: executable is not in IBM form";
  let c = compiled.Triq.Compiled.hardware in
  let out = preamble c in
  T.target out compiled;
  render out ~n_qubits:(Device.Machine.n_qubits compiled.Triq.Compiled.machine) c

let emit_program ~name (c : Ir.Circuit.t) =
  let out = preamble c in
  T.string out name;
  declare out ~n_qubits:c.Ir.Circuit.n_qubits c;
  let next_cbit = ref 0 in
  let rec emit_gate (g : Ir.Gate.t) =
    match g with
    | One (X, a) -> gate out "x" a
    | One (Y, a) -> gate out "y" a
    | One (Z, a) -> gate out "z" a
    | One (H, a) -> gate out "h" a
    | One (S, a) -> gate out "s" a
    | One (Sdg, a) -> gate out "sdg" a
    | One (T, a) -> gate out "t" a
    | One (Tdg, a) -> gate out "tdg" a
    | One (Rx t, a) -> rotation out "rx" t a
    | One (Ry t, a) -> rotation out "ry" t a
    | One (Rz t, a) -> rotation out "rz" t a
    | One (U1 l, a) -> rotation out "u1" l a
    | One (U2 (p, l), a) -> rotation2 out "u2" p l a
    | One (U3 (t, p, l), a) -> rotation3 out "u3" t p l a
    | One (Rxy (t, p), a) ->
      (* Rxy(t, p) = Rz(p) . Rx(t) . Rz(-p) as a matrix product: apply
         Rz(-p) first in circuit order. *)
      rotation out "rz" (-.p) a;
      rotation out "rx" t a;
      rotation out "rz" p a
    | Two (Cnot, a, b) -> gate2 out "cx" a b
    | Two (Cz, a, b) -> gate2 out "cz" a b
    | Two (Swap, a, b) -> gate2 out "swap" a b
    | Two (Xx chi, a, b) -> List.iter emit_gate (Ir.Decompose.xx_gates chi a b)
    | Two (Iswap, a, b) -> List.iter emit_gate (Ir.Decompose.iswap a b)
    | Ccx (a, b, t) -> gate3 out "ccx" a b t
    | Cswap (cc, a, b) -> gate3 out "cswap" cc a b
    | Measure a ->
      measure out a !next_cbit;
      incr next_cbit
  in
  List.iter emit_gate c.Ir.Circuit.gates;
  T.contents out
