module M = Mathkit.Matrix

type t = { n : int; re : float array; im : float array }

let init n =
  if n < 1 || n > 24 then invalid_arg "Statevector.init: n out of range";
  let dim = 1 lsl n in
  let re = Array.make dim 0.0 and im = Array.make dim 0.0 in
  re.(0) <- 1.0;
  { n; re; im }

let n_qubits t = t.n

let of_arrays ~re ~im =
  let dim = Array.length re in
  if dim = 0 || Array.length im <> dim then
    invalid_arg "Statevector.of_arrays: arrays must be equal non-empty length";
  let n = ref 0 in
  while 1 lsl !n < dim do incr n done;
  if 1 lsl !n <> dim || !n < 1 || !n > 24 then
    invalid_arg "Statevector.of_arrays: length must be 2^n, 1 <= n <= 24";
  { n = !n; re; im }

let copy t = { n = t.n; re = Array.copy t.re; im = Array.copy t.im }

let blit ~src ~dst =
  if src.n <> dst.n then invalid_arg "Statevector.blit: size mismatch";
  Array.blit src.re 0 dst.re 0 (Array.length src.re);
  Array.blit src.im 0 dst.im 0 (Array.length src.im)

let amplitude t i = Mathkit.Cplx.make t.re.(i) t.im.(i)

let probability t i = (t.re.(i) *. t.re.(i)) +. (t.im.(i) *. t.im.(i))

let probabilities t = Array.init (1 lsl t.n) (probability t)

let accumulate_probabilities t acc =
  if Array.length acc <> 1 lsl t.n then
    invalid_arg "Statevector.accumulate_probabilities: length mismatch";
  let re = t.re and im = t.im in
  for i = 0 to (1 lsl t.n) - 1 do
    acc.(i) <- acc.(i) +. ((re.(i) *. re.(i)) +. (im.(i) *. im.(i)))
  done

let norm2 t =
  let acc = ref 0.0 in
  for i = 0 to (1 lsl t.n) - 1 do
    acc := !acc +. probability t i
  done;
  !acc

let check_qubit t q =
  if q < 0 || q >= t.n then invalid_arg "Statevector: qubit out of range"

let apply_one t m q =
  check_qubit t q;
  if M.rows m <> 2 || M.cols m <> 2 then invalid_arg "Statevector.apply_one: not 2x2";
  let g r c = M.get m r c in
  let a00 = g 0 0 and a01 = g 0 1 and a10 = g 1 0 and a11 = g 1 1 in
  let r00 = a00.re and i00 = a00.im and r01 = a01.re and i01 = a01.im in
  let r10 = a10.re and i10 = a10.im and r11 = a11.re and i11 = a11.im in
  let dim = 1 lsl t.n in
  let stride = 1 lsl (t.n - 1 - q) in
  let re = t.re and im = t.im in
  let idx = ref 0 in
  while !idx < dim do
    (* Iterate over indices whose q-bit is 0 within each block. *)
    let block_end = !idx + stride in
    while !idx < block_end do
      let i0 = !idx in
      let i1 = i0 + stride in
      let xr = re.(i0) and xi = im.(i0) and yr = re.(i1) and yi = im.(i1) in
      re.(i0) <- (r00 *. xr) -. (i00 *. xi) +. (r01 *. yr) -. (i01 *. yi);
      im.(i0) <- (r00 *. xi) +. (i00 *. xr) +. (r01 *. yi) +. (i01 *. yr);
      re.(i1) <- (r10 *. xr) -. (i10 *. xi) +. (r11 *. yr) -. (i11 *. yi);
      im.(i1) <- (r10 *. xi) +. (i10 *. xr) +. (r11 *. yi) +. (i11 *. yr);
      incr idx
    done;
    idx := !idx + stride
  done

let apply_two t m a b =
  check_qubit t a;
  check_qubit t b;
  if a = b then invalid_arg "Statevector.apply_two: identical qubits";
  if M.rows m <> 4 || M.cols m <> 4 then invalid_arg "Statevector.apply_two: not 4x4";
  let mr = Array.init 16 (fun k -> (M.get m (k / 4) (k mod 4)).re) in
  let mi = Array.init 16 (fun k -> (M.get m (k / 4) (k mod 4)).im) in
  let dim = 1 lsl t.n in
  let sa = 1 lsl (t.n - 1 - a) and sb = 1 lsl (t.n - 1 - b) in
  let re = t.re and im = t.im in
  let xr = Array.make 4 0.0 and xi = Array.make 4 0.0 in
  let indices = Array.make 4 0 in
  (* Enumerate the dim/4 group representatives (both bits 0) directly:
     split the index into the runs of bits above, between and below the
     two strides, skipping the set-bit halves block-wise. *)
  let sl = if sa < sb then sa else sb in
  let sh = if sa < sb then sb else sa in
  let h = ref 0 in
  while !h < dim do
    let m_ = ref !h in
    let mid_end = !h + sh in
    while !m_ < mid_end do
      let base = ref !m_ in
      let low_end = !m_ + sl in
      while !base < low_end do
        indices.(0) <- !base;
        indices.(1) <- !base lor sb;
        indices.(2) <- !base lor sa;
        indices.(3) <- !base lor sa lor sb;
        for k = 0 to 3 do
          xr.(k) <- re.(indices.(k));
          xi.(k) <- im.(indices.(k))
        done;
        for r = 0 to 3 do
          let accr = ref 0.0 and acci = ref 0.0 in
          for c = 0 to 3 do
            let k = (r * 4) + c in
            accr := !accr +. (mr.(k) *. xr.(c)) -. (mi.(k) *. xi.(c));
            acci := !acci +. (mr.(k) *. xi.(c)) +. (mi.(k) *. xr.(c))
          done;
          re.(indices.(r)) <- !accr;
          im.(indices.(r)) <- !acci
        done;
        incr base
      done;
      m_ := !m_ + (2 * sl)
    done;
    h := !h + (2 * sh)
  done

(* ------------------------------------------------------------------ *)
(* Specialized kernels: permutation and diagonal gates touch (or move) *)
(* each amplitude once, with no 4x4 product.                           *)
(* ------------------------------------------------------------------ *)

let check_pair t a b =
  check_qubit t a;
  check_qubit t b;
  if a = b then invalid_arg "Statevector: identical qubits"

let apply_cnot t c x =
  check_pair t c x;
  let dim = 1 lsl t.n in
  let sc = 1 lsl (t.n - 1 - c) and sx = 1 lsl (t.n - 1 - x) in
  let sl = if sc < sx then sc else sx in
  let sh = if sc < sx then sx else sc in
  let re = t.re and im = t.im in
  let h = ref 0 in
  while !h < dim do
    let m = ref !h in
    let mid_end = !h + sh in
    while !m < mid_end do
      let base = ref !m in
      let low_end = !m + sl in
      while !base < low_end do
        let i10 = !base lor sc in
        let i11 = i10 lor sx in
        let r = re.(i10) and i = im.(i10) in
        re.(i10) <- re.(i11);
        im.(i10) <- im.(i11);
        re.(i11) <- r;
        im.(i11) <- i;
        incr base
      done;
      m := !m + (2 * sl)
    done;
    h := !h + (2 * sh)
  done

let apply_cz t a b =
  check_pair t a b;
  let dim = 1 lsl t.n in
  let sa = 1 lsl (t.n - 1 - a) and sb = 1 lsl (t.n - 1 - b) in
  let sl = if sa < sb then sa else sb in
  let sh = if sa < sb then sb else sa in
  let re = t.re and im = t.im in
  let h = ref 0 in
  while !h < dim do
    let m = ref !h in
    let mid_end = !h + sh in
    while !m < mid_end do
      let base = ref !m in
      let low_end = !m + sl in
      while !base < low_end do
        let i11 = !base lor sa lor sb in
        re.(i11) <- -.re.(i11);
        im.(i11) <- -.im.(i11);
        incr base
      done;
      m := !m + (2 * sl)
    done;
    h := !h + (2 * sh)
  done

let apply_swap t a b =
  check_pair t a b;
  let dim = 1 lsl t.n in
  let sa = 1 lsl (t.n - 1 - a) and sb = 1 lsl (t.n - 1 - b) in
  let sl = if sa < sb then sa else sb in
  let sh = if sa < sb then sb else sa in
  let re = t.re and im = t.im in
  let h = ref 0 in
  while !h < dim do
    let m = ref !h in
    let mid_end = !h + sh in
    while !m < mid_end do
      let base = ref !m in
      let low_end = !m + sl in
      while !base < low_end do
        let i01 = !base lor sb and i10 = !base lor sa in
        let r = re.(i01) and i = im.(i01) in
        re.(i01) <- re.(i10);
        im.(i01) <- im.(i10);
        re.(i10) <- r;
        im.(i10) <- i;
        incr base
      done;
      m := !m + (2 * sl)
    done;
    h := !h + (2 * sh)
  done

let apply_iswap t a b =
  check_pair t a b;
  let dim = 1 lsl t.n in
  let sa = 1 lsl (t.n - 1 - a) and sb = 1 lsl (t.n - 1 - b) in
  let sl = if sa < sb then sa else sb in
  let sh = if sa < sb then sb else sa in
  let re = t.re and im = t.im in
  let h = ref 0 in
  while !h < dim do
    let m = ref !h in
    let mid_end = !h + sh in
    while !m < mid_end do
      let base = ref !m in
      let low_end = !m + sl in
      while !base < low_end do
        (* |01> -> i|10>, |10> -> i|01>: swap then multiply by i. *)
        let i01 = !base lor sb and i10 = !base lor sa in
        let r01 = re.(i01) and x01 = im.(i01) in
        let r10 = re.(i10) and x10 = im.(i10) in
        re.(i01) <- -.x10;
        im.(i01) <- r10;
        re.(i10) <- -.x01;
        im.(i10) <- r01;
        incr base
      done;
      m := !m + (2 * sl)
    done;
    h := !h + (2 * sh)
  done

let apply_diag_one t ~d0 ~d1 q =
  check_qubit t q;
  let d0r, d0i = d0 and d1r, d1i = d1 in
  let dim = 1 lsl t.n in
  let stride = 1 lsl (t.n - 1 - q) in
  let re = t.re and im = t.im in
  let idx = ref 0 in
  while !idx < dim do
    let block_end = !idx + stride in
    while !idx < block_end do
      let i0 = !idx in
      let i1 = i0 + stride in
      let r0 = re.(i0) and x0 = im.(i0) in
      re.(i0) <- (d0r *. r0) -. (d0i *. x0);
      im.(i0) <- (d0r *. x0) +. (d0i *. r0);
      let r1 = re.(i1) and x1 = im.(i1) in
      re.(i1) <- (d1r *. r1) -. (d1i *. x1);
      im.(i1) <- (d1r *. x1) +. (d1i *. r1);
      incr idx
    done;
    idx := !idx + stride
  done

let apply_diag_table t ~qs ~fr ~fi =
  let k = Array.length qs in
  if k < 1 || k > 16 then invalid_arg "Statevector.apply_diag_table: 1-16 wires";
  if Array.length fr <> 1 lsl k || Array.length fi <> 1 lsl k then
    invalid_arg "Statevector.apply_diag_table: table length must be 2^wires";
  Array.iter (check_qubit t) qs;
  let shifts = Array.map (fun q -> t.n - 1 - q) qs in
  let dim = 1 lsl t.n in
  let re = t.re and im = t.im in
  for idx = 0 to dim - 1 do
    let key = ref 0 in
    for j = 0 to k - 1 do
      key := (!key lsl 1) lor ((idx lsr shifts.(j)) land 1)
    done;
    let cr = fr.(!key) and ci = fi.(!key) in
    let r = re.(idx) and x = im.(idx) in
    re.(idx) <- (cr *. r) -. (ci *. x);
    im.(idx) <- (cr *. x) +. (ci *. r)
  done

let rec apply_gate t (g : Ir.Gate.t) =
  match g with
  | One (k, q) -> apply_one t (Ir.Matrices.one_q k) q
  | Two (k, a, b) -> apply_two t (Ir.Matrices.two_q k) a b
  | Ccx (a, b, c) ->
    (* Phase-free permutation: apply via its decomposition on the state. *)
    List.iter (apply_gate t) (Ir.Decompose.ccx a b c)
  | Cswap (a, b, c) -> List.iter (apply_gate t) (Ir.Decompose.cswap a b c)
  | Measure _ -> invalid_arg "Statevector.apply_gate: Measure"

let run (c : Ir.Circuit.t) =
  let t = init c.Ir.Circuit.n_qubits in
  List.iter
    (fun g -> if not (Ir.Gate.is_measure g) then apply_gate t g)
    c.Ir.Circuit.gates;
  t

let cdf_index cumulative target =
  let dim = Array.length cumulative in
  if dim = 0 then invalid_arg "Statevector.cdf_index: empty table";
  (* Smallest index whose cumulative mass strictly exceeds [target]. The
     comparison must be strict: with [>=], a draw of exactly 0.0 — or one
     landing exactly on a cumulative edge — selects the bucket *ending* at
     that edge, which can be a zero-probability outcome. *)
  let lo = ref 0 and hi = ref (dim - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cumulative.(mid) > target then hi := mid else lo := mid + 1
  done;
  (* If rounding pushed [target] to (or past) the final cumulative value,
     the search falls through to the last bucket even when it carries no
     mass; walk back to the last bucket with positive mass. *)
  let i = ref !lo in
  while !i > 0 && cumulative.(!i) <= cumulative.(!i - 1) do
    decr i
  done;
  !i

let sampler t =
  (* One O(2^n) pass builds the cumulative table (subsuming the norm2
     scan); every draw is then an O(n) binary search. *)
  let dim = 1 lsl t.n in
  let cumulative = Array.make dim 0.0 in
  let acc = ref 0.0 in
  for i = 0 to dim - 1 do
    acc := !acc +. probability t i;
    cumulative.(i) <- !acc
  done;
  let total = !acc in
  fun rng ->
    let target = Mathkit.Rng.float rng *. total in
    cdf_index cumulative target

let scale t c =
  for i = 0 to (1 lsl t.n) - 1 do
    t.re.(i) <- c *. t.re.(i);
    t.im.(i) <- c *. t.im.(i)
  done

let add_scaled dst c src =
  if dst.n <> src.n then invalid_arg "Statevector.add_scaled: size mismatch";
  for i = 0 to (1 lsl dst.n) - 1 do
    dst.re.(i) <- dst.re.(i) +. (c *. src.re.(i));
    dst.im.(i) <- dst.im.(i) +. (c *. src.im.(i))
  done

let zero_like t =
  { n = t.n; re = Array.make (1 lsl t.n) 0.0; im = Array.make (1 lsl t.n) 0.0 }

let excited_population t q =
  check_qubit t q;
  let stride = 1 lsl (t.n - 1 - q) in
  let dim = 1 lsl t.n in
  let acc = ref 0.0 in
  let idx = ref 0 in
  while !idx < dim do
    let block_end = !idx + stride in
    while !idx < block_end do
      let i1 = !idx + stride in
      acc := !acc +. (t.re.(i1) *. t.re.(i1)) +. (t.im.(i1) *. t.im.(i1));
      incr idx
    done;
    idx := !idx + stride
  done;
  !acc

let relax t q ~gamma rng =
  check_qubit t q;
  if gamma < 0.0 || gamma > 1.0 then invalid_arg "Statevector.relax: gamma";
  if gamma = 0.0 then false
  else begin
    let p1 = excited_population t q in
    let p_jump = gamma *. p1 in
    let stride = 1 lsl (t.n - 1 - q) in
    let dim = 1 lsl t.n in
    if Mathkit.Rng.bool rng p_jump then begin
      (* Jump: K1 = sqrt(gamma)|0><1|, then renormalize: the |1> amplitudes
         move to |0> and the old |0> amplitudes vanish. *)
      let norm = sqrt p1 in
      let idx = ref 0 in
      while !idx < dim do
        let block_end = !idx + stride in
        while !idx < block_end do
          let i0 = !idx and i1 = !idx + stride in
          t.re.(i0) <- t.re.(i1) /. norm;
          t.im.(i0) <- t.im.(i1) /. norm;
          t.re.(i1) <- 0.0;
          t.im.(i1) <- 0.0;
          incr idx
        done;
        idx := !idx + stride
      done;
      true
    end
    else begin
      (* No jump: K0 = diag(1, sqrt(1-gamma)), renormalized by
         sqrt(1 - gamma*p1). *)
      let damp = sqrt (1.0 -. gamma) in
      let norm = sqrt (1.0 -. p_jump) in
      let idx = ref 0 in
      while !idx < dim do
        let block_end = !idx + stride in
        while !idx < block_end do
          let i0 = !idx and i1 = !idx + stride in
          t.re.(i0) <- t.re.(i0) /. norm;
          t.im.(i0) <- t.im.(i0) /. norm;
          t.re.(i1) <- t.re.(i1) *. damp /. norm;
          t.im.(i1) <- t.im.(i1) *. damp /. norm;
          incr idx
        done;
        idx := !idx + stride
      done;
      false
    end
  end
