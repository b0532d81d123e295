(** OpenQASM 2.0 front end.

    A second program-input language alongside Scaffold: most circulating
    NISQ programs are OpenQASM (IBM's executable format, Cross et al.
    2017), so TriQ accepts them directly and re-optimizes them for any
    target. Supported:

    - [OPENQASM 2.0;] header and [include "qelib1.inc";] (the standard
      library is built in);
    - multiple [qreg]/[creg] declarations (quantum registers laid out
      contiguously in declaration order);
    - the qelib1 gate vocabulary: u1 u2 u3 u cx id h x y z s sdg t tdg
      rx ry rz cz swap ccx cswap cu1/cp crz crx cry ch cy cu3;
    - user [gate] definitions with parameters, expanded at use sites;
    - parameter expressions: float literals, [pi], + - * / ^, unary
      minus, parentheses;
    - register broadcast ([h q;] applies to the whole register; [cx q, r]
      maps pairwise over same-length registers);
    - [measure q[i] -> c[j];] and register-wide [measure q -> c;];
    - [barrier] (accepted and ignored — the IR DAG derives scheduling
      from data dependencies).

    [if], [reset] and [opaque] are rejected with a clear error: the gate
    IR is measurement-terminal (the paper's benchmarks measure once, at
    the end).

    The text is read by a pull lexer with one token of lookahead: no
    token list is built, and a token is scanned from the source string
    only when the parser first reads it, after the statement before it
    has been elaborated. Errors are therefore reported in source order:
    when an input holds several errors (lexical, syntactic or semantic),
    [Error] names the first one. A statement's semantic errors (unknown
    gate, index out of bounds, qubit measured twice) are found once its
    closing [;] has been read, before anything after it is scanned, and
    carry the line where the statement begins. *)

exception Error of string * int
(** [Error (message, line)] *)

type program = {
  circuit : Ir.Circuit.t;
  measured : int list;
      (** qubits in classical-bit order (creg declaration order, ascending
          bit index) — the bitstring order of the program's output *)
  qubit_names : (string * int) list;  (** ["q[0]" -> 0] debug mapping *)
}

val parse : string -> program

val parse_file : string -> program
