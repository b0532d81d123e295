module Q = Mathkit.Quaternion

type one_q =
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | Rx of float
  | Ry of float
  | Rz of float
  | Rxy of float * float
  | U1 of float
  | U2 of float * float
  | U3 of float * float * float

type two_q = Cnot | Cz | Xx of float | Swap | Iswap

type t =
  | One of one_q * int
  | Two of two_q * int * int
  | Ccx of int * int * int
  | Cswap of int * int * int
  | Measure of int

let qubits = function
  | One (_, q) | Measure q -> [ q ]
  | Two (_, a, b) -> [ a; b ]
  | Ccx (a, b, c) | Cswap (a, b, c) -> [ a; b; c ]

let arity g = List.length (qubits g)

let is_measure = function Measure _ -> true | One _ | Two _ | Ccx _ | Cswap _ -> false

let is_two_qubit = function Two _ -> true | One _ | Ccx _ | Cswap _ | Measure _ -> false

let distinct qs =
  let sorted = List.sort compare qs in
  let rec check = function
    | a :: (b :: _ as rest) -> a <> b && check rest
    | [ _ ] | [] -> true
  in
  check sorted

let map_qubits f g =
  let g' =
    match g with
    | One (k, q) -> One (k, f q)
    | Two (k, a, b) -> Two (k, f a, f b)
    | Ccx (a, b, c) -> Ccx (f a, f b, f c)
    | Cswap (a, b, c) -> Cswap (f a, f b, f c)
    | Measure q -> Measure (f q)
  in
  if not (distinct (qubits g')) then
    invalid_arg "Gate.map_qubits: renaming collapsed operands";
  g'

let in_range n q = q >= 0 && q < n

let valid_on n g =
  match g with
  | One (_, q) | Measure q -> in_range n q
  | Two (_, a, b) -> in_range n a && in_range n b && a <> b
  | Ccx (a, b, c) | Cswap (a, b, c) ->
    in_range n a && in_range n b && in_range n c && a <> b && a <> c && b <> c

let half_pi = Float.pi /. 2.0

let one_q_to_quaternion = function
  | X -> Q.rx Float.pi
  | Y -> Q.ry Float.pi
  | Z -> Q.rz Float.pi
  | H -> Q.of_axis_angle (1.0, 0.0, 1.0) Float.pi
  | S -> Q.rz half_pi
  | Sdg -> Q.rz (-.half_pi)
  | T -> Q.rz (Float.pi /. 4.0)
  | Tdg -> Q.rz (-.(Float.pi /. 4.0))
  | Rx theta -> Q.rx theta
  | Ry theta -> Q.ry theta
  | Rz theta -> Q.rz theta
  | Rxy (theta, phi) -> Q.rxy theta phi
  | U1 lambda -> Q.rz lambda
  | U2 (phi, lambda) -> Q.mul (Q.rz phi) (Q.mul (Q.ry half_pi) (Q.rz lambda))
  | U3 (theta, phi, lambda) -> Q.mul (Q.rz phi) (Q.mul (Q.ry theta) (Q.rz lambda))

let pp_one_q fmt = function
  | X -> Format.fprintf fmt "X"
  | Y -> Format.fprintf fmt "Y"
  | Z -> Format.fprintf fmt "Z"
  | H -> Format.fprintf fmt "H"
  | S -> Format.fprintf fmt "S"
  | Sdg -> Format.fprintf fmt "Sdg"
  | T -> Format.fprintf fmt "T"
  | Tdg -> Format.fprintf fmt "Tdg"
  | Rx t -> Format.fprintf fmt "Rx(%.4g)" t
  | Ry t -> Format.fprintf fmt "Ry(%.4g)" t
  | Rz t -> Format.fprintf fmt "Rz(%.4g)" t
  | Rxy (t, p) -> Format.fprintf fmt "Rxy(%.4g,%.4g)" t p
  | U1 l -> Format.fprintf fmt "U1(%.4g)" l
  | U2 (p, l) -> Format.fprintf fmt "U2(%.4g,%.4g)" p l
  | U3 (t, p, l) -> Format.fprintf fmt "U3(%.4g,%.4g,%.4g)" t p l

let pp_two_q fmt = function
  | Cnot -> Format.fprintf fmt "CNOT"
  | Cz -> Format.fprintf fmt "CZ"
  | Xx chi -> Format.fprintf fmt "XX(%.4g)" chi
  | Swap -> Format.fprintf fmt "SWAP"
  | Iswap -> Format.fprintf fmt "ISWAP"

let pp fmt = function
  | One (k, q) -> Format.fprintf fmt "%a q%d" pp_one_q k q
  | Two (k, a, b) -> Format.fprintf fmt "%a q%d, q%d" pp_two_q k a b
  | Ccx (a, b, c) -> Format.fprintf fmt "CCX q%d, q%d, q%d" a b c
  | Cswap (a, b, c) -> Format.fprintf fmt "CSWAP q%d, q%d, q%d" a b c
  | Measure q -> Format.fprintf fmt "MEASURE q%d" q

let to_string g = Format.asprintf "%a" pp g

let float_equal a b = Float.abs (a -. b) <= 1e-12

let one_q_equal a b =
  match (a, b) with
  | Rx s, Rx t | Ry s, Ry t | Rz s, Rz t | U1 s, U1 t -> float_equal s t
  | Rxy (s1, s2), Rxy (t1, t2) | U2 (s1, s2), U2 (t1, t2) ->
    float_equal s1 t1 && float_equal s2 t2
  | U3 (s1, s2, s3), U3 (t1, t2, t3) ->
    float_equal s1 t1 && float_equal s2 t2 && float_equal s3 t3
  | X, X | Y, Y | Z, Z | H, H | S, S | Sdg, Sdg | T, T | Tdg, Tdg -> true
  | ( (X | Y | Z | H | S | Sdg | T | Tdg | Rx _ | Ry _ | Rz _ | Rxy _ | U1 _ | U2 _ | U3 _),
      _ ) ->
    false

let two_q_equal a b =
  match (a, b) with
  | Cnot, Cnot | Cz, Cz | Swap, Swap | Iswap, Iswap -> true
  | Xx s, Xx t -> float_equal s t
  | (Cnot | Cz | Xx _ | Swap | Iswap), _ -> false

let equal g1 g2 =
  match (g1, g2) with
  | One (k1, q1), One (k2, q2) -> q1 = q2 && one_q_equal k1 k2
  | Two (k1, a1, b1), Two (k2, a2, b2) -> a1 = a2 && b1 = b2 && two_q_equal k1 k2
  | Ccx (a1, b1, c1), Ccx (a2, b2, c2) | Cswap (a1, b1, c1), Cswap (a2, b2, c2) ->
    a1 = a2 && b1 = b2 && c1 = c2
  | Measure q1, Measure q2 -> q1 = q2
  | (One _ | Two _ | Ccx _ | Cswap _ | Measure _), _ -> false
