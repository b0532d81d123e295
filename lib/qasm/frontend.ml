exception Error of string * int

let fail line fmt = Printf.ksprintf (fun msg -> raise (Error (msg, line))) fmt

(* ---------- Lexer ---------- *)

type token =
  | Ident of string
  | Real of float
  | Nat of int
  | Str  (** a string literal; only [include] takes one, and ignores it *)
  | Sym of char  (** ; , ( ) { } [ ] + - * / ^ = ! < > *)
  | Arrow
  | Eof

(* A pull lexer with one token of lookahead. [tok] is the current token;
   [advance] consumes it, and the next one is scanned only when the
   parser reads [current]. A statement is therefore elaborated before
   the token after its ';' is scanned, and the first error in source
   order is the one reported. *)
type state = {
  src : string;
  mutable pos : int;  (** first unscanned byte *)
  mutable line : int;  (** line of [pos] *)
  mutable tok : token;
  mutable tok_line : int;  (** line where [tok] ends *)
  mutable consumed : bool;  (** [tok] was consumed; scan before reading *)
}

let sym_tokens = Array.init 256 (fun i -> Sym (Char.chr i))

let is_digit c = c >= '0' && c <= '9'
let is_ident c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || is_digit c

(* The byte at [i], or NUL past the end (NUL is never valid input). *)
let byte st i = if i < String.length st.src then String.unsafe_get st.src i else '\000'

let rec skip_blanks st =
  match byte st st.pos with
  | ' ' | '\t' | '\r' ->
    st.pos <- st.pos + 1;
    skip_blanks st
  | '\n' ->
    st.pos <- st.pos + 1;
    st.line <- st.line + 1;
    skip_blanks st
  | '/' when byte st (st.pos + 1) = '/' ->
    while st.pos < String.length st.src && String.unsafe_get st.src st.pos <> '\n' do
      st.pos <- st.pos + 1
    done;
    skip_blanks st
  | _ -> ()

(* Digits, '.', 'e'/'E' and a sign right after an exponent marker; a '.'
   or an exponent makes the literal a real. Naturals are accumulated
   from the digits; only reals and errors take a substring. *)
let rec scan_number st start i nat overflow is_real =
  match byte st i with
  | '0' .. '9' as c ->
    let d = Char.code c - 48 in
    if nat > (max_int - d) / 10 then scan_number st start (i + 1) nat true is_real
    else scan_number st start (i + 1) ((nat * 10) + d) overflow is_real
  | '.' | 'e' | 'E' -> scan_number st start (i + 1) nat overflow true
  | ('+' | '-') when i > start && (byte st (i - 1) = 'e' || byte st (i - 1) = 'E') ->
    scan_number st start (i + 1) nat overflow is_real
  | _ ->
    st.pos <- i;
    if is_real then begin
      let text = String.sub st.src start (i - start) in
      match float_of_string_opt text with
      | Some f -> Real f
      | None -> fail st.line "bad real literal %S" text
    end
    else if overflow then
      fail st.line "bad integer literal %S" (String.sub st.src start (i - start))
    else Nat nat

let scan_string st =
  let i = ref (st.pos + 1) in
  while !i < String.length st.src && String.unsafe_get st.src !i <> '"' do
    if String.unsafe_get st.src !i = '\n' then st.line <- st.line + 1;
    incr i
  done;
  if !i >= String.length st.src then fail st.line "unterminated string";
  st.pos <- !i + 1;
  Str

let scan_ident st =
  let start = st.pos in
  let i = ref (start + 1) in
  while is_ident (byte st !i) do
    incr i
  done;
  st.pos <- !i;
  Ident (String.sub st.src start (!i - start))

let scan st =
  skip_blanks st;
  let tok =
    if st.pos >= String.length st.src then Eof
    else
      match String.unsafe_get st.src st.pos with
      | '"' -> scan_string st
      | '-' when byte st (st.pos + 1) = '>' ->
        st.pos <- st.pos + 2;
        Arrow
      | '0' .. '9' -> scan_number st st.pos st.pos 0 false false
      | '.' when is_digit (byte st (st.pos + 1)) ->
        scan_number st st.pos st.pos 0 false false
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> scan_ident st
      | ( ';' | ',' | '(' | ')' | '{' | '}' | '[' | ']' | '+' | '-' | '*' | '/' | '^'
        | '=' | '!' | '<' | '>' ) as c ->
        st.pos <- st.pos + 1;
        Array.unsafe_get sym_tokens (Char.code c)
      | c -> fail st.line "unexpected character %C" c
  in
  st.tok <- tok;
  st.tok_line <- st.line;
  st.consumed <- false

let current st =
  if st.consumed then scan st;
  st.tok

let advance st =
  if st.consumed then scan st;
  match st.tok with Eof -> () | _ -> st.consumed <- true

let cur_line st =
  if st.consumed then scan st;
  st.tok_line

let expect_sym st c =
  match current st with
  | Sym x when x = c -> advance st
  | _ -> fail (cur_line st) "expected %C" c

let expect_ident st =
  match current st with
  | Ident name ->
    advance st;
    name
  | _ -> fail (cur_line st) "expected an identifier"

let expect_nat st =
  match current st with
  | Nat v ->
    advance st;
    v
  | _ -> fail (cur_line st) "expected an integer"

(* ---------- Parameter expressions ---------- *)

type expr =
  | Num of float
  | Pi
  | Param of string
  | Neg of expr
  | Bin of char * expr * expr

let rec parse_expr st = parse_add st

and parse_add st =
  let lhs = parse_mul st in
  match current st with
  | Sym ('+' as op) | Sym ('-' as op) ->
    advance st;
    let rhs = parse_add_chain st (Bin (op, lhs, parse_mul st)) in
    rhs
  | _ -> lhs

and parse_add_chain st lhs =
  match current st with
  | Sym ('+' as op) | Sym ('-' as op) ->
    advance st;
    parse_add_chain st (Bin (op, lhs, parse_mul st))
  | _ -> lhs

and parse_mul st =
  let lhs = parse_pow st in
  parse_mul_chain st lhs

and parse_mul_chain st lhs =
  match current st with
  | Sym ('*' as op) | Sym ('/' as op) ->
    advance st;
    parse_mul_chain st (Bin (op, lhs, parse_pow st))
  | _ -> lhs

and parse_pow st =
  let lhs = parse_atom st in
  match current st with
  | Sym '^' ->
    advance st;
    Bin ('^', lhs, parse_pow st)
  | _ -> lhs

and parse_atom st =
  match current st with
  | Real f ->
    advance st;
    Num f
  | Nat v ->
    advance st;
    Num (float_of_int v)
  | Ident "pi" ->
    advance st;
    Pi
  | Ident name ->
    advance st;
    Param name
  | Sym '-' ->
    advance st;
    (* Unary minus binds looser than ^: -pi^2 = -(pi^2). *)
    Neg (parse_pow st)
  | Sym '(' ->
    advance st;
    let e = parse_expr st in
    expect_sym st ')';
    e
  | _ -> fail (cur_line st) "expected a parameter expression"

let rec eval_expr line env = function
  | Num f -> f
  | Pi -> Float.pi
  | Param name -> (
    match List.assoc_opt name env with
    | Some v -> v
    | None -> fail line "unknown parameter %S" name)
  | Neg e -> -.eval_expr line env e
  | Bin (op, a, b) -> (
    let x = eval_expr line env a and y = eval_expr line env b in
    match op with
    | '+' -> x +. y
    | '-' -> x -. y
    | '*' -> x *. y
    | '/' ->
      if Float.abs y < 1e-300 then fail line "division by zero" else x /. y
    | '^' -> Float.pow x y
    | _ -> assert false)

(* ---------- Arguments and gate bodies ---------- *)

type arg = Whole of string | Indexed of string * int

type gate_op = {
  op_name : string;
  op_params : expr list;
  op_args : arg list;
  op_line : int;
}

type gate_def = { g_params : string list; g_qubits : string list; g_body : gate_op list }

let parse_arg st =
  let name = expect_ident st in
  match current st with
  | Sym '[' ->
    advance st;
    let i = expect_nat st in
    expect_sym st ']';
    Indexed (name, i)
  | _ -> Whole name

let rec parse_exprs st =
  let e = parse_expr st in
  match current st with
  | Sym ',' ->
    advance st;
    e :: parse_exprs st
  | _ ->
    expect_sym st ')';
    [ e ]

let parse_params_opt st =
  match current st with
  | Sym '(' -> (
    advance st;
    match current st with
    | Sym ')' ->
      advance st;
      []
    | _ -> parse_exprs st)
  | _ -> []

let rec parse_args st =
  let a = parse_arg st in
  match current st with
  | Sym ',' ->
    advance st;
    a :: parse_args st
  | _ -> [ a ]

let parse_gate_op st =
  let op_line = cur_line st in
  let op_name = expect_ident st in
  let op_params = parse_params_opt st in
  let op_args = parse_args st in
  expect_sym st ';';
  { op_name; op_params; op_args; op_line }

(* ---------- Elaboration ---------- *)

type program = {
  circuit : Ir.Circuit.t;
  measured : int list;
  qubit_names : (string * int) list;
}

type env = {
  mutable qregs : (string * (int * int)) list;  (** newest first *)
  mutable cregs : (string * (int * int)) list;  (** newest first *)
  mutable next_qubit : int;
  mutable next_cbit : int;
  mutable defs : (string * gate_def) list;
  mutable gates : Ir.Gate.t list;  (** reversed *)
  mutable readout : (int * int) list;  (** cbit -> qubit *)
  measured_cbits : (int, unit) Hashtbl.t;
  measured_qubits : (int, unit) Hashtbl.t;
}

let push env g = env.gates <- g :: env.gates
let one env k q = push env (Ir.Gate.One (k, q))

let check_arity line name params (qs : int array) np nq =
  if List.length params <> np then
    fail line "gate %s expects %d parameter(s), got %d" name np (List.length params);
  if Array.length qs <> nq then
    fail line "gate %s expects %d qubit(s), got %d" name nq (Array.length qs)

(* qelib1 built-ins expressed over the IR, pushed onto [env.gates].
   Returns false for unknown names (then looked up among user
   definitions). *)
let builtin env line name params (qs : int array) =
  match name with
  | "U" | "u3" | "u" ->
    check_arity line name params qs 3 1;
    one env
      (Ir.Gate.U3 (List.nth params 0, List.nth params 1, List.nth params 2))
      qs.(0);
    true
  | "u2" ->
    check_arity line name params qs 2 1;
    one env (Ir.Gate.U2 (List.nth params 0, List.nth params 1)) qs.(0);
    true
  | "u1" | "p" | "rx" | "ry" | "rz" ->
    check_arity line name params qs 1 1;
    let k =
      match name with
      | "rx" -> Ir.Gate.Rx (List.nth params 0)
      | "ry" -> Ir.Gate.Ry (List.nth params 0)
      | "rz" -> Ir.Gate.Rz (List.nth params 0)
      | _ -> Ir.Gate.U1 (List.nth params 0)
    in
    one env k qs.(0);
    true
  | "id" ->
    check_arity line name params qs 0 1;
    true
  | "h" | "x" | "y" | "z" | "s" | "sdg" | "t" | "tdg" ->
    check_arity line name params qs 0 1;
    let k =
      match name with
      | "h" -> Ir.Gate.H
      | "x" -> Ir.Gate.X
      | "y" -> Ir.Gate.Y
      | "z" -> Ir.Gate.Z
      | "s" -> Ir.Gate.S
      | "sdg" -> Ir.Gate.Sdg
      | "t" -> Ir.Gate.T
      | _ -> Ir.Gate.Tdg
    in
    one env k qs.(0);
    true
  | "CX" | "cx" | "cz" | "swap" | "iswap" ->
    check_arity line name params qs 0 2;
    let k =
      match name with
      | "cz" -> Ir.Gate.Cz
      | "swap" -> Ir.Gate.Swap
      | "iswap" -> Ir.Gate.Iswap
      | _ -> Ir.Gate.Cnot
    in
    push env (Ir.Gate.Two (k, qs.(0), qs.(1)));
    true
  | "ccx" | "cswap" ->
    check_arity line name params qs 0 3;
    push env
      (if name = "ccx" then Ir.Gate.Ccx (qs.(0), qs.(1), qs.(2))
       else Ir.Gate.Cswap (qs.(0), qs.(1), qs.(2)));
    true
  | "ch" | "cy" ->
    check_arity line name params qs 0 2;
    let decompose = if name = "ch" then Ir.Decompose.ch else Ir.Decompose.cy in
    List.iter (push env) (decompose qs.(0) qs.(1));
    true
  | "cu1" | "cp" | "crz" | "crx" | "cry" ->
    check_arity line name params qs 1 2;
    let decompose =
      match name with
      | "crz" -> Ir.Decompose.crz
      | "crx" -> Ir.Decompose.crx
      | "cry" -> Ir.Decompose.cry
      | _ -> Ir.Decompose.cu1
    in
    List.iter (push env) (decompose (List.nth params 0) qs.(0) qs.(1));
    true
  | "cu3" ->
    check_arity line name params qs 3 2;
    List.iter (push env)
      (Ir.Decompose.cu3 (List.nth params 0) (List.nth params 1) (List.nth params 2)
         qs.(0) qs.(1));
    true
  | _ -> false

let distinct (qs : int array) =
  match Array.length qs with
  | 0 | 1 -> true
  | 2 -> qs.(0) <> qs.(1)
  | 3 -> qs.(0) <> qs.(1) && qs.(0) <> qs.(2) && qs.(1) <> qs.(2)
  | n -> List.length (List.sort_uniq compare (Array.to_list qs)) = n

let max_expansion_depth = 64

let rec apply_gate env depth line name param_values (qs : int array) =
  if depth > max_expansion_depth then
    fail line "gate expansion too deep (recursive definition of %s?)" name;
  if not (distinct qs) then fail line "gate %s applied with repeated qubits" name;
  if not (builtin env line name param_values qs) then
    match List.assoc_opt name env.defs with
    | None -> fail line "unknown gate %S" name
    | Some def ->
      if List.length def.g_params <> List.length param_values then
        fail line "gate %s expects %d parameter(s)" name (List.length def.g_params);
      if List.length def.g_qubits <> Array.length qs then
        fail line "gate %s expects %d qubit(s)" name (List.length def.g_qubits);
      let param_env = List.combine def.g_params param_values in
      let qubit_env = List.combine def.g_qubits (Array.to_list qs) in
      List.iter
        (fun op ->
          let values = List.map (eval_expr op.op_line param_env) op.op_params in
          let operands =
            Array.of_list
              (List.map
                 (function
                   | Whole q -> (
                     match List.assoc_opt q qubit_env with
                     | Some hw -> hw
                     | None -> fail op.op_line "unknown gate-body qubit %S" q)
                   | Indexed _ ->
                     fail op.op_line "indexing is not allowed inside gate bodies")
                 op.op_args)
          in
          apply_gate env (depth + 1) op.op_line op.op_name values operands)
        def.g_body

(* [(base, size)] of register [r], newest declaration first. *)
let rec find_reg line kind r = function
  | [] -> fail line "unknown %s register %S" kind r
  | (name, v) :: rest -> if String.equal name r then v else find_reg line kind r rest

let lookup_qreg env line r = find_reg line "quantum" r env.qregs

(* Size-1 registers act as scalars; all larger registers must agree. *)
let broadcast_width env line (args : arg list) =
  let sizes =
    List.filter_map
      (function Whole r -> Some (snd (lookup_qreg env line r)) | Indexed _ -> None)
      args
  in
  match List.sort_uniq compare (List.filter (fun s -> s > 1) sizes) with
  | [] -> 1
  | [ n ] -> n
  | _ -> fail line "broadcast registers must have equal sizes"

(* Operand [i] onwards of broadcast step [k]. *)
let rec operands env line k (qs : int array) i = function
  | [] -> ()
  | Whole r :: rest ->
    let base, size = lookup_qreg env line r in
    qs.(i) <- (base + if size = 1 then 0 else k);
    operands env line k qs (i + 1) rest
  | Indexed (r, j) :: rest ->
    let base, size = lookup_qreg env line r in
    if j < 0 || j >= size then fail line "index %d out of bounds for %S[%d]" j r size;
    qs.(i) <- base + j;
    operands env line k qs (i + 1) rest

(* Broadcast a top-level gate call over whole-register arguments. *)
let resolve_call env line name param_values (args : arg list) =
  let width =
    if List.for_all (function Indexed _ -> true | Whole _ -> false) args then 1
    else broadcast_width env line args
  in
  let n = List.length args in
  for k = 0 to width - 1 do
    let qs = Array.make n 0 in
    operands env line k qs 0 args;
    apply_gate env 0 line name param_values qs
  done

(* ---------- Statements ---------- *)

let parse_gate_def st env =
  let line = cur_line st in
  advance st (* 'gate' *);
  let name = expect_ident st in
  let params =
    match current st with
    | Sym '(' ->
      advance st;
      if current st = Sym ')' then begin
        advance st;
        []
      end
      else begin
        let rec collect acc =
          let p = expect_ident st in
          match current st with
          | Sym ',' ->
            advance st;
            collect (p :: acc)
          | _ ->
            expect_sym st ')';
            List.rev (p :: acc)
        in
        collect []
      end
    | _ -> []
  in
  let rec qubits acc =
    let q = expect_ident st in
    match current st with
    | Sym ',' ->
      advance st;
      qubits (q :: acc)
    | _ -> List.rev (q :: acc)
  in
  let qs = qubits [] in
  expect_sym st '{';
  let rec body acc =
    match current st with
    | Sym '}' ->
      advance st;
      List.rev acc
    | Ident "barrier" ->
      advance st;
      let rec skip () =
        match current st with
        | Sym ';' -> advance st
        | Eof -> fail (cur_line st) "unterminated gate body"
        | _ ->
          advance st;
          skip ()
      in
      skip ();
      body acc
    | Eof -> fail (cur_line st) "unterminated gate body"
    | _ -> body (parse_gate_op st :: acc)
  in
  let g_body = body [] in
  if List.mem_assoc name env.defs then fail line "gate %S already defined" name;
  env.defs <- (name, { g_params = params; g_qubits = qs; g_body }) :: env.defs

let parse_measure st env =
  let line = cur_line st in
  advance st (* 'measure' *);
  let src = parse_arg st in
  (match current st with Arrow -> advance st | _ -> fail line "expected ->");
  let dst = parse_arg st in
  expect_sym st ';';
  let qreg r = lookup_qreg env line r
  and creg r = find_reg line "classical" r env.cregs in
  let record qubit cbit =
    if Hashtbl.mem env.measured_cbits cbit then fail line "classical bit measured twice";
    if Hashtbl.mem env.measured_qubits qubit then fail line "qubit measured twice";
    Hashtbl.replace env.measured_cbits cbit ();
    Hashtbl.replace env.measured_qubits qubit ();
    env.readout <- (cbit, qubit) :: env.readout;
    push env (Ir.Gate.Measure qubit)
  in
  match (src, dst) with
  | Indexed (q, i), Indexed (c, j) ->
    let qb, qs = qreg q and cb, cs = creg c in
    if i >= qs then fail line "index %d out of bounds for %S" i q;
    if j >= cs then fail line "index %d out of bounds for %S" j c;
    record (qb + i) (cb + j)
  | Whole q, Whole c ->
    let qb, qs = qreg q and cb, cs = creg c in
    if qs <> cs then fail line "register-wide measure needs equal sizes";
    for k = 0 to qs - 1 do
      record (qb + k) (cb + k)
    done
  | _ -> fail line "measure must be index->index or register->register"

let parse st =
  let env =
    {
      qregs = [];
      cregs = [];
      next_qubit = 0;
      next_cbit = 0;
      defs = [];
      gates = [];
      readout = [];
      measured_cbits = Hashtbl.create 64;
      measured_qubits = Hashtbl.create 64;
    }
  in
  (* Header. *)
  (match current st with
  | Ident "OPENQASM" ->
    advance st;
    (match current st with Real _ | Nat _ -> advance st | _ -> ());
    expect_sym st ';'
  | _ -> fail (cur_line st) "missing OPENQASM header");
  let rec statements () =
    match current st with
    | Eof -> ()
    | Ident "include" ->
      advance st;
      (match current st with
      | Str -> advance st
      | _ -> fail (cur_line st) "include expects a string");
      expect_sym st ';';
      statements ()
    | Ident "qreg" ->
      let line = cur_line st in
      advance st;
      let name = expect_ident st in
      expect_sym st '[';
      let size = expect_nat st in
      expect_sym st ']';
      expect_sym st ';';
      if size <= 0 then fail line "qreg %S must have positive size" name;
      if List.mem_assoc name env.qregs then fail line "qreg %S already declared" name;
      env.qregs <- (name, (env.next_qubit, size)) :: env.qregs;
      env.next_qubit <- env.next_qubit + size;
      statements ()
    | Ident "creg" ->
      let line = cur_line st in
      advance st;
      let name = expect_ident st in
      expect_sym st '[';
      let size = expect_nat st in
      expect_sym st ']';
      expect_sym st ';';
      if List.mem_assoc name env.cregs then fail line "creg %S already declared" name;
      env.cregs <- (name, (env.next_cbit, size)) :: env.cregs;
      env.next_cbit <- env.next_cbit + size;
      statements ()
    | Ident "gate" ->
      parse_gate_def st env;
      statements ()
    | Ident "measure" ->
      parse_measure st env;
      statements ()
    | Ident "barrier" ->
      advance st;
      let rec skip () =
        match current st with
        | Sym ';' -> advance st
        | Eof -> fail (cur_line st) "unterminated barrier"
        | _ ->
          advance st;
          skip ()
      in
      skip ();
      statements ()
    | Ident ("if" | "reset" | "opaque") ->
      fail (cur_line st) "%S is not supported (the gate IR is measurement-terminal)"
        (match current st with Ident s -> s | _ -> "")
    | Ident _ ->
      let op = parse_gate_op st in
      let values =
        match op.op_params with [] -> [] | ps -> List.map (eval_expr op.op_line []) ps
      in
      resolve_call env op.op_line op.op_name values op.op_args;
      statements ()
    | _ -> fail (cur_line st) "unexpected token"
  in
  statements ();
  if env.next_qubit = 0 then raise (Error ("program declares no qubits", 1));
  let measured = List.map snd (List.sort compare env.readout) in
  let qubit_names =
    List.concat_map
      (fun (name, (base, size)) ->
        List.init size (fun i ->
            (String.concat "" [ name; "["; string_of_int i; "]" ], base + i)))
      (List.rev env.qregs)
  in
  {
    circuit = Ir.Circuit.create env.next_qubit (List.rev env.gates);
    measured;
    qubit_names;
  }

let parse src = parse { src; pos = 0; line = 1; tok = Eof; tok_line = 1; consumed = true }

let parse_file path =
  let ic = open_in_bin path in
  let source =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse source
