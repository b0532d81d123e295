module Matrix = Mathkit.Matrix
module Cplx = Mathkit.Cplx

type generator = int * bool array * bool array

(* A generator is i^e * prod_q X_q^{x_q} Z_q^{z_q}, X written before Z
   on each qubit; all phase lives in [e] (mod 4). *)
type row = { mutable e : int; x : bool array; z : bool array }

type t = { n : int; gens : row array }

let init n =
  if n < 1 then invalid_arg "Tableau.init: need at least one qubit";
  {
    n;
    gens =
      Array.init n (fun q ->
          { e = 0; x = Array.make n false; z = (let z = Array.make n false in z.(q) <- true; z) });
  }

let n_qubits t = t.n
let copy_row r = { e = r.e; x = Array.copy r.x; z = Array.copy r.z }
let generators t = Array.to_list (Array.map (fun r -> (r.e, Array.copy r.x, Array.copy r.z)) t.gens)

(* ------------------------------------------------------------------ *)
(* Local Pauli algebra over the k operand slots of a gate.            *)
(* ------------------------------------------------------------------ *)

type local = { le : int; lx : bool array; lz : bool array }

let local_id k = { le = 0; lx = Array.make k false; lz = Array.make k false }

(* (X^x1 Z^z1)(X^x2 Z^z2): commuting X^x2 left across Z^z1 picks up
   (-1) per slot where both are set. *)
let local_mul a b =
  let k = Array.length a.lx in
  let e = ref (a.le + b.le) in
  for j = 0 to k - 1 do
    if a.lz.(j) && b.lx.(j) then e := !e + 2
  done;
  {
    le = !e land 3;
    lx = Array.init k (fun j -> a.lx.(j) <> b.lx.(j));
    lz = Array.init k (fun j -> a.lz.(j) <> b.lz.(j));
  }

(* ------------------------------------------------------------------ *)
(* Numeric derivation of a gate's Clifford action.                    *)
(* ------------------------------------------------------------------ *)

let sigma_i = Matrix.identity 2

let sigma_x =
  Matrix.of_rows [ [ Cplx.zero; Cplx.one ]; [ Cplx.one; Cplx.zero ] ]

let sigma_y =
  Matrix.of_rows [ [ Cplx.zero; Cplx.make 0. (-1.) ]; [ Cplx.i; Cplx.zero ] ]

let sigma_z =
  Matrix.of_rows [ [ Cplx.one; Cplx.zero ]; [ Cplx.zero; Cplx.make (-1.) 0. ] ]

let sigma = [| sigma_i; sigma_x; sigma_y; sigma_z |]

(* Pauli label s in 0..3 as an X-before-Z local factor: Y = i * X Z. *)
let label_local s =
  match s with
  | 0 -> (0, false, false)
  | 1 -> (0, true, false)
  | 2 -> (1, true, true)
  | 3 -> (0, false, true)
  | _ -> assert false

let eps = 1e-6

(* Match [c] against +/- (sigma_{s_0} (x) ... (x) sigma_{s_{k-1}}). A
   unitary conjugate of a Hermitian Pauli is Hermitian with eigenvalues
   +/-1, so the scalar can only be +/-1. *)
let match_signed_pauli k c =
  let rec labels_of i acc m =
    if i = k then if Matrix.equal ~eps c m || Matrix.equal ~eps c (Matrix.scale (Cplx.re (-1.)) m) then Some (List.rev acc, m) else None
    else
      let rec try_s s =
        if s > 3 then None
        else
          match labels_of (i + 1) (s :: acc) (Matrix.kron m sigma.(s)) with
          | Some _ as r -> r
          | None -> try_s (s + 1)
      in
      try_s 0
  in
  match labels_of 0 [] (Matrix.identity 1) with
  | None -> None
  | Some (labels, m) ->
      let negated = Matrix.equal ~eps c (Matrix.scale (Cplx.re (-1.)) m) in
      let lx = Array.make k false and lz = Array.make k false in
      let e = ref (if negated then 2 else 0) in
      List.iteri
        (fun j s ->
          let se, sx, sz = label_local s in
          e := !e + se;
          lx.(j) <- sx;
          lz.(j) <- sz)
        labels;
      Some { le = !e land 3; lx; lz }

(* Basis Pauli X_slot / Z_slot as a 2^k x 2^k matrix (slot 0 = high bit,
   matching {!Ir.Matrices}). *)
let basis_pauli k slot s =
  let m = ref (Matrix.identity 1) in
  for j = 0 to k - 1 do
    m := Matrix.kron !m (if j = slot then sigma.(s) else sigma_i)
  done;
  !m

(* The derived action: image of X_slot and Z_slot under conjugation, or
   None when some image is not a signed Pauli (gate is not Clifford). *)
type action = { img_x : local array; img_z : local array }

let derive_action k u =
  let udag = Matrix.adjoint u in
  let conj p = Matrix.mul u (Matrix.mul p udag) in
  let exception Not_clifford in
  try
    let image s slot =
      match match_signed_pauli k (conj (basis_pauli k slot s)) with
      | Some l -> l
      | None -> raise Not_clifford
    in
    Some
      {
        img_x = Array.init k (fun slot -> image 1 slot);
        img_z = Array.init k (fun slot -> image 3 slot);
      }
  with Not_clifford -> None

(* Memoized per gate shape (operands normalized to slots 0..k-1). The key
   carries the gate's angle, so the table is emptied whenever it reaches
   [action_capacity] entries. The simulator derives actions on pool
   workers, so lookups and inserts hold [action_mutex]; the derivation
   itself runs outside it. *)
let action_capacity = 1024
let action_cache : (Ir.Gate.t, action option) Hashtbl.t = Hashtbl.create 64
let action_mutex = Mutex.create ()

let memo_action key derive =
  match Mutex.protect action_mutex (fun () -> Hashtbl.find_opt action_cache key) with
  | Some a -> a
  | None ->
      let a = derive () in
      Mutex.protect action_mutex (fun () ->
          if Hashtbl.length action_cache >= action_capacity then
            Hashtbl.reset action_cache;
          Hashtbl.replace action_cache key a);
      a

let gate_action g =
  match g with
  | Ir.Gate.Measure _ -> invalid_arg "Tableau: Measure has no unitary action"
  | Ir.Gate.Ccx _ | Ir.Gate.Cswap _ -> None
  | Ir.Gate.One (og, _) ->
      memo_action (Ir.Gate.One (og, 0)) (fun () -> derive_action 1 (Ir.Matrices.one_q og))
  | Ir.Gate.Two (tg, _, _) ->
      memo_action (Ir.Gate.Two (tg, 0, 1)) (fun () ->
          derive_action 2 (Ir.Matrices.two_q tg))

let is_clifford_gate g =
  match g with
  | Ir.Gate.Measure _ -> false
  | _ -> gate_action g <> None

(* Conjugation of one Pauli row, exposed over caller-owned bit arrays so
   external tableau representations (e.g. the simulator's
   Aaronson-Gottesman tableau with destabilizers) can reuse the derived
   actions without going through a [t]. *)
module Action = struct
  type t = action

  let of_gate = gate_action
  let memo_capacity = action_capacity
  let memo_size () = Mutex.protect action_mutex (fun () -> Hashtbl.length action_cache)
  let arity act = Array.length act.img_x

  (* Restrict the row to the operand qubits (slot order; factors on
     other qubits commute through), replace each basis factor by its
     image, in the canonical X-before-Z per-qubit order. Returns the
     updated phase; [x]/[z] are updated in place. *)
  let conjugate act qs ~x ~z e =
    let k = Array.length act.img_x in
    let acc = ref (local_id k) in
    for i = 0 to k - 1 do
      let q = qs.(i) in
      if x.(q) then acc := local_mul !acc act.img_x.(i);
      if z.(q) then acc := local_mul !acc act.img_z.(i)
    done;
    let a = !acc in
    for i = 0 to k - 1 do
      x.(qs.(i)) <- a.lx.(i);
      z.(qs.(i)) <- a.lz.(i)
    done;
    (e + a.le) land 3

  (* Dense lookup table over the 4^k local Pauli patterns, for callers
     that conjugate rows in bulk (the simulator's tableau backend):
     index and result pack slot j's X bit at 2j and Z bit at 2j+1, with
     the phase increment above bit 2k. *)
  let table act =
    let k = Array.length act.img_x in
    let bits = 2 * k in
    let qs = Array.init k Fun.id in
    Array.init (1 lsl bits) (fun code ->
        let x = Array.make k false and z = Array.make k false in
        for j = 0 to k - 1 do
          x.(j) <- (code lsr (2 * j)) land 1 = 1;
          z.(j) <- (code lsr ((2 * j) + 1)) land 1 = 1
        done;
        let e = conjugate act qs ~x ~z 0 in
        let out = ref (e lsl bits) in
        for j = 0 to k - 1 do
          if x.(j) then out := !out lor (1 lsl (2 * j));
          if z.(j) then out := !out lor (1 lsl ((2 * j) + 1))
        done;
        !out)
end

let conj_row row qs act =
  row.e <- Action.conjugate act qs ~x:row.x ~z:row.z row.e

let apply t g =
  let qs = Array.of_list (Ir.Gate.qubits g) in
  Array.iter
    (fun q ->
      if q < 0 || q >= t.n then invalid_arg "Tableau.apply: operand out of range")
    qs;
  match gate_action g with
  | None -> false
  | Some act ->
      Array.iter (fun row -> conj_row row qs act) t.gens;
      true

let of_circuit c =
  let t = init c.Ir.Circuit.n_qubits in
  let ok =
    List.for_all
      (fun g -> match g with Ir.Gate.Measure _ -> true | _ -> apply t g)
      c.Ir.Circuit.gates
  in
  if ok then Some t else None

let clifford_prefix c =
  let t = init c.Ir.Circuit.n_qubits in
  let rec go count = function
    | [] -> count
    | Ir.Gate.Measure _ :: rest -> go count rest
    | g :: rest -> if apply t g then go (count + 1) rest else count
  in
  go 0 c.Ir.Circuit.gates

(* ------------------------------------------------------------------ *)
(* Canonical form and equality.                                        *)
(* ------------------------------------------------------------------ *)

(* Full-width Pauli product with the same phase rule as {!local_mul}. *)
let row_mul n a b =
  let e = ref (a.e + b.e) in
  for q = 0 to n - 1 do
    if a.z.(q) && b.x.(q) then e := !e + 2
  done;
  {
    e = !e land 3;
    x = Array.init n (fun q -> a.x.(q) <> b.x.(q));
    z = Array.init n (fun q -> a.z.(q) <> b.z.(q));
  }

(* Gaussian elimination to reduced row-echelon form over the 2n GF(2)
   columns x_0..x_{n-1}, z_0..z_{n-1}. Row operations are Pauli
   products, so phases follow the group structure; a group contains each
   bit pattern with exactly one sign, making the result canonical. *)
let rref n rows =
  let rows = Array.map copy_row rows in
  let m = Array.length rows in
  let bit row col = if col < n then row.x.(col) else row.z.(col - n) in
  let r = ref 0 in
  for col = 0 to (2 * n) - 1 do
    if !r < m then begin
      let pivot = ref (-1) in
      (try
         for i = !r to m - 1 do
           if bit rows.(i) col then begin
             pivot := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !pivot >= 0 then begin
        let tmp = rows.(!r) in
        rows.(!r) <- rows.(!pivot);
        rows.(!pivot) <- tmp;
        for i = 0 to m - 1 do
          if i <> !r && bit rows.(i) col then
            rows.(i) <- row_mul n rows.(i) rows.(!r)
        done;
        incr r
      end
    end
  done;
  rows

let canonicalize t = { t with gens = rref t.n t.gens }

let row_equal a b = a.e = b.e && a.x = b.x && a.z = b.z

let equal a b =
  a.n = b.n
  &&
  let ca = canonicalize a and cb = canonicalize b in
  Array.for_all2 row_equal ca.gens cb.gens

(* The subgroup of stabilizers with no X component on any wire of
   [measured], as a canonical basis. Z-basis dephasing on [measured]
   kills exactly the Pauli terms with X/Y there, so this subgroup is the
   complete invariant of the state once those wires are read out: it
   determines the joint outcome distribution and the conditional states
   on the remaining wires. Computed by eliminating the measured X
   columns (row ops = Pauli products); the rows left X-free span the
   kernel by rank-nullity. *)
let dephased_rows t ~measured =
  let rows = Array.map copy_row t.gens in
  let m = Array.length rows in
  let r = ref 0 in
  List.iter
    (fun w ->
      if w < 0 || w >= t.n then invalid_arg "Tableau: measured wire out of range";
      if !r < m then begin
        let pivot = ref (-1) in
        (try
           for i = !r to m - 1 do
             if rows.(i).x.(w) then begin
               pivot := i;
               raise Exit
             end
           done
         with Exit -> ());
        if !pivot >= 0 then begin
          let tmp = rows.(!r) in
          rows.(!r) <- rows.(!pivot);
          rows.(!pivot) <- tmp;
          for i = 0 to m - 1 do
            if i <> !r && rows.(i).x.(w) then
              rows.(i) <- row_mul t.n rows.(i) rows.(!r)
          done;
          incr r
        end
      end)
    (List.sort_uniq Stdlib.compare measured);
  rref t.n (Array.sub rows !r (m - !r))

let dephase t ~measured =
  Array.to_list
    (Array.map (fun r -> (r.e, Array.copy r.x, Array.copy r.z)) (dephased_rows t ~measured))

let measurement_equal a b ~measured =
  a.n = b.n
  &&
  let ra = dephased_rows a ~measured and rb = dephased_rows b ~measured in
  Array.length ra = Array.length rb && Array.for_all2 row_equal ra rb

let generator_to_string (e, x, z) =
  let n = Array.length x in
  let ys = ref 0 in
  for q = 0 to n - 1 do
    if x.(q) && z.(q) then incr ys
  done;
  let sign =
    match (e - !ys) land 3 with
    | 0 -> "+"
    | 1 -> "+i"
    | 2 -> "-"
    | _ -> "-i"
  in
  let buf = Buffer.create (n + 2) in
  Buffer.add_string buf sign;
  for q = 0 to n - 1 do
    Buffer.add_char buf
      (match (x.(q), z.(q)) with
      | false, false -> 'I'
      | true, false -> 'X'
      | false, true -> 'Z'
      | true, true -> 'Y')
  done;
  Buffer.contents buf

let first_difference ?(measured = []) a b =
  if a.n <> b.n then
    Some (Printf.sprintf "qubit counts differ (%d vs %d)" a.n b.n)
  else
    let ra =
      if measured = [] then (canonicalize a).gens else dephased_rows a ~measured
    and rb =
      if measured = [] then (canonicalize b).gens else dephased_rows b ~measured
    in
    if Array.length ra <> Array.length rb then
      Some
        (Printf.sprintf "stabilizer ranks differ (%d vs %d)" (Array.length ra)
           (Array.length rb))
    else
      let rec find i =
        if i >= Array.length ra then None
        else if row_equal ra.(i) rb.(i) then find (i + 1)
        else
          Some
            (Printf.sprintf "%s vs %s"
               (generator_to_string (ra.(i).e, ra.(i).x, ra.(i).z))
               (generator_to_string (rb.(i).e, rb.(i).x, rb.(i).z)))
      in
      find 0

let embed t ~n ~map =
  if Array.length map <> t.n then
    invalid_arg "Tableau.embed: map length must equal qubit count";
  let seen = Array.make n false in
  Array.iter
    (fun q ->
      if q < 0 || q >= n then invalid_arg "Tableau.embed: map image out of range";
      if seen.(q) then invalid_arg "Tableau.embed: map is not injective";
      seen.(q) <- true)
    map;
  let remap row =
    let x = Array.make n false and z = Array.make n false in
    for q = 0 to t.n - 1 do
      x.(map.(q)) <- row.x.(q);
      z.(map.(q)) <- row.z.(q)
    done;
    { e = row.e; x; z }
  in
  let fresh =
    List.filter_map
      (fun q ->
        if seen.(q) then None
        else
          Some
            { e = 0; x = Array.make n false; z = (let z = Array.make n false in z.(q) <- true; z) })
      (List.init n Fun.id)
  in
  { n; gens = Array.of_list (Array.to_list (Array.map remap t.gens) @ fresh) }
