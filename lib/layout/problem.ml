type objective = Max_min | Product

let objective_name = function Max_min -> "max-min" | Product -> "product"

type t = {
  n_program : int;
  n_hardware : int;
  pairs : ((int * int) * int) list;
  measured : int list;
  score : int -> int -> float;
  readout : int -> float;
  objective : objective;
}

let log_floor = 1e-12

let make ?(objective = Max_min) ~n_program ~n_hardware ~pairs ~measured ~score
    ~readout () =
  if n_program <= 0 then invalid_arg "Layout.Problem.make: empty program";
  if n_program > n_hardware then
    invalid_arg "Layout.Problem.make: program does not fit on device";
  List.iter
    (fun ((a, b), count) ->
      if a < 0 || a >= n_program || b < 0 || b >= n_program || a = b || count <= 0
      then invalid_arg "Layout.Problem.make: malformed interaction pair")
    pairs;
  List.iter
    (fun m ->
      if m < 0 || m >= n_program then
        invalid_arg "Layout.Problem.make: measured qubit out of range")
    measured;
  { n_program; n_hardware; pairs; measured; score; readout; objective }

let trivial t = Array.init t.n_program (fun i -> i)

let evaluate t placement =
  let min_rel = ref 1.0 and log_prod = ref 0.0 in
  let account r count =
    if r < !min_rel then min_rel := r;
    log_prod := !log_prod +. (float_of_int count *. log (Float.max r log_floor))
  in
  List.iter
    (fun ((a, b), count) -> account (t.score placement.(a) placement.(b)) count)
    t.pairs;
  List.iter (fun m -> account (t.readout placement.(m)) 1) t.measured;
  (!min_rel, !log_prod)

(* Program qubits in decreasing connectivity order: placing the busiest
   qubits first makes pruning bite early. *)
let order t =
  let weight = Array.make t.n_program 0 in
  List.iter
    (fun ((a, b), count) ->
      weight.(a) <- weight.(a) + count + 10;
      weight.(b) <- weight.(b) + count + 10)
    t.pairs;
  List.iter (fun m -> weight.(m) <- weight.(m) + 1) t.measured;
  let order = Array.init t.n_program (fun i -> i) in
  Array.sort (fun a b -> compare (weight.(b), a) (weight.(a), b)) order;
  order

(* partners.(p) = [(other_program_qubit, oriented, count)], oriented true
   when p is the first operand of the pair. Construction order matches the
   original mapper exactly (cost accumulation order is part of the
   bit-compatibility contract). *)
let partners t =
  let partners = Array.make t.n_program [] in
  List.iter
    (fun ((a, b), count) ->
      partners.(a) <- (b, true, count) :: partners.(a);
      partners.(b) <- (a, false, count) :: partners.(b))
    t.pairs;
  partners

let measured_set t =
  let set = Array.make t.n_program false in
  List.iter (fun m -> set.(m) <- true) t.measured;
  set
