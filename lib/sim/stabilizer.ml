module Action = Dataflow.Tableau.Action
module Rng = Mathkit.Rng

(* A row is i^e * prod_q X_q^{x_q} Z_q^{z_q} (X written before Z on each
   qubit), the same convention as {!Dataflow.Tableau}. *)
type row = { mutable e : int; x : bool array; z : bool array }

type t = { n : int; destab : row array; stab : row array }

let init n =
  if n < 1 then invalid_arg "Stabilizer.init: need at least one qubit";
  let x_row q =
    { e = 0; x = (let a = Array.make n false in a.(q) <- true; a); z = Array.make n false }
  and z_row q =
    { e = 0; x = Array.make n false; z = (let a = Array.make n false in a.(q) <- true; a) }
  in
  { n; destab = Array.init n x_row; stab = Array.init n z_row }

let n_qubits t = t.n

let copy_row r = { e = r.e; x = Array.copy r.x; z = Array.copy r.z }

let copy t =
  { n = t.n; destab = Array.map copy_row t.destab; stab = Array.map copy_row t.stab }

let check_qubit t q =
  if q < 0 || q >= t.n then invalid_arg "Stabilizer: qubit out of range"

(* a := a * b, exact Pauli product: commuting b's X factors left across
   a's Z factors picks up (-1) per overlapping qubit. *)
let mul_into n a b =
  let extra = ref 0 in
  for q = 0 to n - 1 do
    if a.z.(q) && b.x.(q) then incr extra;
    a.x.(q) <- a.x.(q) <> b.x.(q);
    a.z.(q) <- a.z.(q) <> b.z.(q)
  done;
  a.e <- (a.e + b.e + (2 * !extra)) land 3

let apply_action t act qs =
  Array.iter (fun q -> check_qubit t q) qs;
  let conj r = r.e <- Action.conjugate act qs ~x:r.x ~z:r.z r.e in
  Array.iter conj t.destab;
  Array.iter conj t.stab

(* Compiled gate application: the action's conjugation baked into a
   dense lookup table over the 4 (1Q) or 16 (2Q) local Pauli patterns
   ({!Dataflow.Tableau.Action.table}), turning the per-row hot path into
   one table read and a few bit writes — no allocation. *)
type app =
  | App1 of { tab : int array; q : int }
  | App2 of { tab : int array; a : int; b : int }

let compile_action act qs =
  let tab = Action.table act in
  match Array.length qs with
  | 1 -> App1 { tab; q = qs.(0) }
  | 2 -> App2 { tab; a = qs.(0); b = qs.(1) }
  | _ -> invalid_arg "Stabilizer.compile_action: 1Q/2Q actions only"

let apply_app t app =
  match app with
  | App1 { tab; q } ->
      let upd r =
        let code = (if r.x.(q) then 1 else 0) lor (if r.z.(q) then 2 else 0) in
        let v = tab.(code) in
        r.x.(q) <- v land 1 <> 0;
        r.z.(q) <- v land 2 <> 0;
        r.e <- (r.e + (v lsr 2)) land 3
      in
      Array.iter upd t.destab;
      Array.iter upd t.stab
  | App2 { tab; a; b } ->
      let upd r =
        let code =
          (if r.x.(a) then 1 else 0)
          lor (if r.z.(a) then 2 else 0)
          lor (if r.x.(b) then 4 else 0)
          lor (if r.z.(b) then 8 else 0)
        in
        let v = tab.(code) in
        r.x.(a) <- v land 1 <> 0;
        r.z.(a) <- v land 2 <> 0;
        r.x.(b) <- v land 4 <> 0;
        r.z.(b) <- v land 8 <> 0;
        r.e <- (r.e + (v lsr 4)) land 3
      in
      Array.iter upd t.destab;
      Array.iter upd t.stab

(* Conjugate a Pauli frame (one Pauli as qubit-indexed bit masks, bit q
   = qubit q) by a compiled gate in place, dropping the phase: the
   frame carries injected errors through the rest of a Clifford circuit
   as a single row, O(1) per gate. *)
type frame = { mutable xm : int; mutable zm : int }

let conjugate_frame app f =
  match app with
  | App1 { tab; q } ->
      let code = ((f.xm lsr q) land 1) lor (((f.zm lsr q) land 1) lsl 1) in
      let v = tab.(code) in
      let bit = 1 lsl q in
      f.xm <- (if v land 1 <> 0 then f.xm lor bit else f.xm land lnot bit);
      f.zm <- (if v land 2 <> 0 then f.zm lor bit else f.zm land lnot bit)
  | App2 { tab; a; b } ->
      let code =
        ((f.xm lsr a) land 1)
        lor (((f.zm lsr a) land 1) lsl 1)
        lor (((f.xm lsr b) land 1) lsl 2)
        lor (((f.zm lsr b) land 1) lsl 3)
      in
      let v = tab.(code) in
      let ba = 1 lsl a and bb = 1 lsl b in
      let xm = if v land 1 <> 0 then f.xm lor ba else f.xm land lnot ba in
      let zm = if v land 2 <> 0 then f.zm lor ba else f.zm land lnot ba in
      f.xm <- (if v land 4 <> 0 then xm lor bb else xm land lnot bb);
      f.zm <- (if v land 8 <> 0 then zm lor bb else zm land lnot bb)

let apply_gate t g =
  match g with
  | Ir.Gate.Measure _ -> invalid_arg "Stabilizer.apply_gate: Measure"
  | _ -> (
      match Action.of_gate g with
      | None -> false
      | Some act ->
          apply_action t act (Array.of_list (Ir.Gate.qubits g));
          true)

type pauli = X | Y | Z

(* Conjugating by a Pauli flips the sign of exactly the rows that
   anticommute with it; bit patterns are untouched. *)
let apply_pauli t q p =
  check_qubit t q;
  let anticommutes r =
    match p with
    | X -> r.z.(q)
    | Z -> r.x.(q)
    | Y -> r.x.(q) <> r.z.(q)
  in
  let flip r = if anticommutes r then r.e <- (r.e + 2) land 3 in
  Array.iter flip t.destab;
  Array.iter flip t.stab

let measure t q rng =
  check_qubit t q;
  let p = ref (-1) in
  (try
     for i = 0 to t.n - 1 do
       if t.stab.(i).x.(q) then begin
         p := i;
         raise Exit
       end
     done
   with Exit -> ());
  if !p >= 0 then begin
    (* Random outcome: some stabilizer anticommutes with Z_q. Multiply
       every other row that anticommutes by the pivot (products of two
       anticommuting-with-Z_q rows commute with it), remember the pivot
       as the new destabilizer, and install +/-Z_q as the new pivot
       stabilizer with a fair coin deciding the sign. *)
    let p = !p in
    let sp = copy_row t.stab.(p) in
    Array.iter (fun r -> if r.x.(q) then mul_into t.n r sp) t.destab;
    Array.iteri (fun i r -> if i <> p && r.x.(q) then mul_into t.n r sp) t.stab;
    let m = Rng.bool rng 0.5 in
    t.destab.(p) <- sp;
    t.stab.(p) <-
      { e = (if m then 2 else 0);
        x = Array.make t.n false;
        z = (let z = Array.make t.n false in z.(q) <- true; z) };
    m
  end
  else begin
    (* Deterministic outcome: +/-Z_q is in the stabilizer group; its
       expansion multiplies the stabilizers whose destabilizer partners
       anticommute with Z_q. The product is exactly +/-Z_q, so the
       phase exponent is 0 or 2. *)
    let scratch = { e = 0; x = Array.make t.n false; z = Array.make t.n false } in
    for i = 0 to t.n - 1 do
      if t.destab.(i).x.(q) then mul_into t.n scratch t.stab.(i)
    done;
    scratch.e = 2
  end

let measure_all t rng =
  let idx = ref 0 in
  for q = 0 to t.n - 1 do
    if measure t q rng then idx := !idx lor (1 lsl (t.n - 1 - q))
  done;
  !idx

(* ------------------------------------------------------------------ *)
(* Dense read-out: support enumeration.                                *)
(* ------------------------------------------------------------------ *)

let max_dense = 24

(* Basis-index mask of a qubit bit-vector: qubit q is bit (n-1-q),
   matching {!Statevector} and {!Ir.Matrices}. *)
let basis_mask n bits =
  let m = ref 0 in
  for q = 0 to n - 1 do
    if bits.(q) then m := !m lor (1 lsl (n - 1 - q))
  done;
  !m

(* Echelonize a copy of the stabilizer rows over the X block: the first
   [s] result rows carry X-pivots at distinct qubits, the rest are
   X-free (pure Z rows). *)
let xblock_echelon t =
  let rows = Array.map copy_row t.stab in
  let r = ref 0 in
  for q = 0 to t.n - 1 do
    if !r < t.n then begin
      let pivot = ref (-1) in
      (try
         for i = !r to t.n - 1 do
           if rows.(i).x.(q) then begin
             pivot := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !pivot >= 0 then begin
        let tmp = rows.(!r) in
        rows.(!r) <- rows.(!pivot);
        rows.(!pivot) <- tmp;
        for i = 0 to t.n - 1 do
          if i <> !r && rows.(i).x.(q) then mul_into t.n rows.(i) rows.(!r)
        done;
        incr r
      end
    end
  done;
  (Array.sub rows 0 !r, Array.sub rows !r (t.n - !r))

(* One point of the support: the X-free stabilizer rows are +/- pure-Z
   operators (phase exponent 0 or 2 — an X-free Pauli has no Y factor,
   and an odd exponent would make it non-Hermitian), so each imposes the
   parity constraint z . u = e/2 (mod 2) on the support. Solve the
   system by Gauss-Jordan elimination with free variables at zero. *)
let support_base t zrows =
  let m = Array.length zrows in
  let a = Array.map (fun r -> Array.copy r.z) zrows in
  let b =
    Array.map
      (fun r ->
        if r.e land 1 <> 0 then invalid_arg "Stabilizer: malformed tableau";
        r.e = 2)
      zrows
  in
  let pivot_col = Array.make m (-1) in
  let row = ref 0 in
  for col = 0 to t.n - 1 do
    if !row < m then begin
      let pivot = ref (-1) in
      (try
         for i = !row to m - 1 do
           if a.(i).(col) then begin
             pivot := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !pivot >= 0 then begin
        let tmp = a.(!row) in
        a.(!row) <- a.(!pivot);
        a.(!pivot) <- tmp;
        let tb = b.(!row) in
        b.(!row) <- b.(!pivot);
        b.(!pivot) <- tb;
        for i = 0 to m - 1 do
          if i <> !row && a.(i).(col) then begin
            for j = 0 to t.n - 1 do
              a.(i).(j) <- a.(i).(j) <> a.(!row).(j)
            done;
            b.(i) <- b.(i) <> b.(!row)
          end
        done;
        pivot_col.(!row) <- col;
        incr row
      end
    end
  done;
  let u = Array.make t.n false in
  for i = 0 to m - 1 do
    if pivot_col.(i) >= 0 then u.(pivot_col.(i)) <- b.(i)
    else if b.(i) then invalid_arg "Stabilizer: inconsistent tableau"
  done;
  u

let rec ctz x = if x land 1 = 1 then 0 else 1 + ctz (x lsr 1)

let parity x =
  let x = ref x and p = ref false in
  while !x <> 0 do
    p := not !p;
    x := !x land (!x - 1)
  done;
  !p

let check_dense t =
  if t.n > max_dense then invalid_arg "Stabilizer: too many qubits for dense read-out"

(* The support is the affine space u0 + span{x-vectors of the pivot
   rows} (2^s points, each of probability exactly 2^-s); a reflected
   Gray code visits it flipping one generator per step. *)
let probabilities t =
  check_dense t;
  let pivots, zrows = xblock_echelon t in
  let u0 = support_base t zrows in
  let s = Array.length pivots in
  let dim = 1 lsl t.n in
  let probs = Array.make dim 0.0 in
  let p = 1.0 /. float_of_int (1 lsl s) in
  let masks = Array.map (fun r -> basis_mask t.n r.x) pivots in
  let idx = ref (basis_mask t.n u0) in
  probs.(!idx) <- p;
  for cnt = 1 to (1 lsl s) - 1 do
    idx := !idx lxor masks.(ctz cnt);
    probs.(!idx) <- p
  done;
  probs

(* Same walk carrying the phase: a pivot row g = i^e X^x Z^z stabilizes
   the state, so amplitude(u xor x) = i^e * (-1)^(z.u) * amplitude(u);
   with amplitude(u0) fixed real-positive (global phase is free), every
   amplitude is 2^(-s/2) times a power of i. *)
let to_statevector t =
  check_dense t;
  let pivots, zrows = xblock_echelon t in
  let u0 = support_base t zrows in
  let s = Array.length pivots in
  let dim = 1 lsl t.n in
  let re = Array.make dim 0.0 and im = Array.make dim 0.0 in
  let amp = 1.0 /. sqrt (float_of_int (1 lsl s)) in
  let xmasks = Array.map (fun r -> basis_mask t.n r.x) pivots in
  let zmasks = Array.map (fun r -> basis_mask t.n r.z) pivots in
  let es = Array.map (fun r -> r.e) pivots in
  let set idx ph =
    match ph with
    | 0 -> re.(idx) <- amp
    | 1 -> im.(idx) <- amp
    | 2 -> re.(idx) <- -.amp
    | _ -> im.(idx) <- -.amp
  in
  let idx = ref (basis_mask t.n u0) and ph = ref 0 in
  set !idx 0;
  for cnt = 1 to (1 lsl s) - 1 do
    let j = ctz cnt in
    ph := (!ph + es.(j) + if parity (zmasks.(j) land !idx) then 2 else 0) land 3;
    idx := !idx lxor xmasks.(j);
    set !idx !ph
  done;
  Statevector.of_arrays ~re ~im

(* ------------------------------------------------------------------ *)
(* Precomputed repeated read-out under Pauli sign noise.               *)
(* ------------------------------------------------------------------ *)

(* Conjugating a stabilizer state by a Pauli only flips row signs, so
   every noisy-Clifford-trajectory output shares one support
   *structure* with the ideal state: the same pivot-row span, only the
   affine base point moves. [readout] freezes that structure once
   (echelon + Gauss-Jordan with subset tracking); [accumulate_readout]
   then prices a trajectory at O(m^2) bit operations plus the 2^s
   support walk — no tableau evolution, no echelon, no solve. *)
type readout = {
  rn : int;
  xmasks : int array;  (* pivot-row X vectors as basis-index masks *)
  zq : int array;  (* Z-row Z vectors as qubit-indexed masks *)
  pivot_cols : int array;  (* reduced Z-system pivot qubit per row, -1 = null *)
  subsets : int array;  (* reduced row as xor-subset of the original Z rows *)
  base : bool array;  (* reduced parities of the clean tableau *)
}

let readout t =
  check_dense t;
  let pivots, zrows = xblock_echelon t in
  let xmasks = Array.map (fun r -> basis_mask t.n r.x) pivots in
  let qubit_mask bits =
    let m = ref 0 in
    for q = 0 to t.n - 1 do
      if bits.(q) then m := !m lor (1 lsl q)
    done;
    !m
  in
  let zq = Array.map (fun r -> qubit_mask r.z) zrows in
  let m = Array.length zrows in
  let a = Array.map (fun r -> Array.copy r.z) zrows in
  let b =
    Array.map
      (fun r ->
        if r.e land 1 <> 0 then invalid_arg "Stabilizer: malformed tableau";
        r.e = 2)
      zrows
  in
  let subsets = Array.init m (fun i -> 1 lsl i) in
  let pivot_cols = Array.make m (-1) in
  let row = ref 0 in
  for col = 0 to t.n - 1 do
    if !row < m then begin
      let pivot = ref (-1) in
      (try
         for i = !row to m - 1 do
           if a.(i).(col) then begin
             pivot := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !pivot >= 0 then begin
        let tmp = a.(!row) in
        a.(!row) <- a.(!pivot);
        a.(!pivot) <- tmp;
        let tb = b.(!row) in
        b.(!row) <- b.(!pivot);
        b.(!pivot) <- tb;
        let ts = subsets.(!row) in
        subsets.(!row) <- subsets.(!pivot);
        subsets.(!pivot) <- ts;
        for i = 0 to m - 1 do
          if i <> !row && a.(i).(col) then begin
            for j = 0 to t.n - 1 do
              a.(i).(j) <- a.(i).(j) <> a.(!row).(j)
            done;
            b.(i) <- b.(i) <> b.(!row);
            subsets.(i) <- subsets.(i) lxor subsets.(!row)
          end
        done;
        pivot_cols.(!row) <- col;
        incr row
      end
    end
  done;
  (* Null reduced rows (products of Z rows that cancel) must carry even
     parity; sign flips preserve this automatically because the flip of
     a product is the xor of the flips. *)
  for i = !row to m - 1 do
    if b.(i) then invalid_arg "Stabilizer: inconsistent tableau"
  done;
  { rn = t.n; xmasks; zq; pivot_cols; subsets; base = b }

(* A Z row has no X part, so a Pauli P anticommutes with it iff P's X
   mask overlaps the row's Z support on an odd number of qubits. *)
let flip_mask r ~xm =
  let f = ref 0 in
  for i = 0 to Array.length r.zq - 1 do
    if parity (xm land r.zq.(i)) then f := !f lor (1 lsl i)
  done;
  !f

(* Only the 2^s support points are touched: every other entry of the
   distribution is 0.0, and adding 0.0 leaves a sum unchanged. *)
let accumulate_readout r ~flips acc =
  if Array.length acc <> 1 lsl r.rn then
    invalid_arg "Stabilizer.accumulate_readout: length mismatch";
  let s = Array.length r.xmasks in
  let p = 1.0 /. float_of_int (1 lsl s) in
  let idx = ref 0 in
  for i = 0 to Array.length r.pivot_cols - 1 do
    let col = r.pivot_cols.(i) in
    if col >= 0 && r.base.(i) <> parity (flips land r.subsets.(i)) then
      idx := !idx lor (1 lsl (r.rn - 1 - col))
  done;
  acc.(!idx) <- acc.(!idx) +. p;
  for cnt = 1 to (1 lsl s) - 1 do
    idx := !idx lxor r.xmasks.(ctz cnt);
    acc.(!idx) <- acc.(!idx) +. p
  done
