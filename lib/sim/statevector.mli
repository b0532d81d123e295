(** Dense statevector simulator.

    This is the stand-in for the paper's real hardware: compiled circuits
    execute on a full 2^n amplitude vector. Amplitudes are stored as
    separate unboxed float arrays (real/imaginary) for speed; qubit 0 is
    the highest-order bit of the basis index, matching
    {!Ir.Matrices.circuit_unitary}. Intended for the compacted circuits
    the runner produces (n <= ~14). *)

type t

(** [init n] is |0...0> on [n] qubits (1 <= n <= 24). *)
val init : int -> t

(** [of_arrays ~re ~im] adopts (does not copy) the amplitude arrays as a
    state; both must have the same power-of-two length 2^n with
    1 <= n <= 24. Used by backends that build amplitudes directly (e.g.
    {!Stabilizer.to_statevector}). *)
val of_arrays : re:float array -> im:float array -> t

val n_qubits : t -> int

(** [copy t] is an independent snapshot. *)
val copy : t -> t

(** [blit ~src ~dst] overwrites [dst]'s amplitudes with [src]'s; both
    must have the same qubit count. *)
val blit : src:t -> dst:t -> unit

(** [amplitude t i] is the amplitude of basis state [i]. *)
val amplitude : t -> int -> Mathkit.Cplx.t

(** [probability t i] is |amplitude|^2 of basis state [i]. *)
val probability : t -> int -> float

(** [probabilities t] is the full probability vector (length 2^n). *)
val probabilities : t -> float array

(** [accumulate_probabilities t acc] adds [probabilities t] into [acc]
    (length 2^n) element by element, bit-identically, without building
    the vector. *)
val accumulate_probabilities : t -> float array -> unit

(** [norm2 t] is the total probability (1 up to rounding). *)
val norm2 : t -> float

(** [apply_one t m q] applies the 2x2 unitary [m] to qubit [q] in place. *)
val apply_one : t -> Mathkit.Matrix.t -> int -> unit

(** [apply_two t m a b] applies the 4x4 unitary [m] to qubits [(a, b)]
    ([a] = high bit of the matrix index) in place. *)
val apply_two : t -> Mathkit.Matrix.t -> int -> int -> unit

(** [apply_cnot t c x] flips qubit [x] where qubit [c] is 1 — a pure
    amplitude permutation, no 4x4 product. *)
val apply_cnot : t -> int -> int -> unit

(** [apply_cz t a b] negates the amplitudes with both qubits 1. *)
val apply_cz : t -> int -> int -> unit

(** [apply_swap t a b] exchanges the two qubits' amplitudes. *)
val apply_swap : t -> int -> int -> unit

(** [apply_iswap t a b] swaps the |01>/|10> amplitudes and multiplies
    each by i. *)
val apply_iswap : t -> int -> int -> unit

(** [apply_diag_one t ~d0 ~d1 q] applies [diag (d0, d1)] (each a
    [(re, im)] pair) to qubit [q]: one complex multiply per
    amplitude. *)
val apply_diag_one : t -> d0:float * float -> d1:float * float -> int -> unit

(** [apply_diag_table t ~qs ~fr ~fi] applies a diagonal operator over
    the wires [qs] (1 to 16 distinct qubits, [qs.(0)] = high bit of the
    table key): amplitude [idx] is multiplied by the complex factor
    [(fr.(key), fi.(key))] where [key] collects the [qs] bits of [idx].
    One table lookup and complex multiply per amplitude regardless of
    how many batched diagonal gates the table folds together. *)
val apply_diag_table :
  t -> qs:int array -> fr:float array -> fi:float array -> unit

(** [apply_gate t g] dispatches a non-measure IR gate; raises
    [Invalid_argument] on [Measure]. *)
val apply_gate : t -> Ir.Gate.t -> unit

(** [run circuit] executes a measure-free prefix view of [circuit] from
    |0...0> (measures are skipped — readout is handled by the caller). *)
val run : Ir.Circuit.t -> t

(** [cdf_index cumulative target] is the index of the bucket a draw of
    [target] selects in a non-decreasing cumulative-mass table: the
    smallest [i] with [cumulative.(i) > target], walked back over
    trailing zero-mass buckets when [target] reaches the table's final
    value (rounding can make the draw equal the total). Never selects a
    zero-probability bucket of a well-formed table. Exposed so the
    boundary cases can be tested directly; {!sampler} is the intended
    entry point. *)
val cdf_index : float array -> float -> int

(** [sampler t] precomputes the cumulative probability table once
    (a single O(2^n) pass) and returns a draw function costing O(n) per
    sample — the right tool for repeated sampling from one state. The
    closure snapshots the state: later mutations of [t] are not seen. *)
val sampler : t -> Mathkit.Rng.t -> int

(** [scale t c] multiplies every amplitude by the real scalar [c]
    (used by the density-matrix backend's Kraus sums). *)
val scale : t -> float -> unit

(** [add_scaled dst c src] adds [c] times [src]'s amplitudes into [dst];
    both must have the same qubit count. *)
val add_scaled : t -> float -> t -> unit

(** [zero_like t] is an all-zero amplitude vector of the same shape
    (not a valid quantum state until written to). *)
val zero_like : t -> t

(** [excited_population t q] is the probability of reading 1 on qubit
    [q]. *)
val excited_population : t -> int -> float

(** [relax t q ~gamma rng] applies single-qubit amplitude damping by the
    quantum-jump method: with probability [gamma *
    excited_population t q] the qubit decays to |0> (jump), otherwise the
    no-jump Kraus operator is applied; the state is renormalized either
    way. Returns [true] when a jump occurred. *)
val relax : t -> int -> gamma:float -> Mathkit.Rng.t -> bool
