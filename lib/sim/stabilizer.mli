(** Aaronson-Gottesman stabilizer simulator: polynomial-time Clifford
    execution.

    Extends {!Dataflow.Tableau}'s generator tableau with the
    destabilizer half, which is what makes measurement sampling O(n^2)
    instead of exponential (Aaronson & Gottesman, "Improved simulation
    of stabilizer circuits", 2004). Gate actions are the numerically
    derived Clifford actions of {!Dataflow.Tableau.Action}, so the whole
    IR gate set is recognized uniformly — [Rz (k*pi/2)], [U2]/[U3] at
    Clifford angles, [Xx (k*pi/4)] — without a case table.

    Dense read-out ({!probabilities}, {!to_statevector}) enumerates the
    support — an affine GF(2) space of 2^s basis states, each carrying
    probability exactly 2^-s — via a Gray-code walk, so Clifford-prefix
    circuits can hand the state over to the dense {!Statevector} backend
    for their non-Clifford tail. Basis-index convention matches
    {!Statevector}: qubit 0 is the highest-order bit. *)

type t

(** [init n] is |0...0> on [n] qubits: destabilizers [X_i], stabilizers
    [Z_i]. No upper bound on [n] for tableau operations; dense read-out
    is capped at 24 qubits like {!Statevector.init}. *)
val init : int -> t

val n_qubits : t -> int

(** Independent deep copy. *)
val copy : t -> t

(** [apply_gate t g] conjugates the tableau by [g] in place and returns
    [true]; returns [false] (state untouched) when [g] is not Clifford.
    Raises [Invalid_argument] on [Measure] or out-of-range operands. *)
val apply_gate : t -> Ir.Gate.t -> bool

(** [apply_action t act qs] conjugates the tableau by a precomputed
    Clifford action on qubits [qs], skipping per-gate action lookup. *)
val apply_action : t -> Dataflow.Tableau.Action.t -> int array -> unit

(** A compiled gate application: the action's conjugation baked into a
    dense lookup table over the 4 (1Q) or 16 (2Q) local Pauli patterns,
    making the per-row update a table read plus bit writes with no
    allocation. This is the hot path for repeated trajectory replays. *)
type app

(** Raises [Invalid_argument] unless the action is 1Q or 2Q. *)
val compile_action : Dataflow.Tableau.Action.t -> int array -> app

val apply_app : t -> app -> unit

(** A Pauli frame: one Pauli as qubit-indexed bit masks (bit [q] =
    qubit [q]) of its X and Z parts, phase dropped. *)
type frame = { mutable xm : int; mutable zm : int }

(** [conjugate_frame app f] conjugates the frame's Pauli by the compiled
    gate in place, dropping the (globally irrelevant) phase. The map is
    linear over GF(2): the frame of a product of Paulis is the [lxor] of
    their frames, so one frame can carry every injected error through
    the rest of a Clifford circuit, O(1) per gate. *)
val conjugate_frame : app -> frame -> unit

type pauli = X | Y | Z

(** [apply_pauli t q p] applies the Pauli error [p] to qubit [q] — an
    O(n) sign update, since conjugation by a Pauli only flips the rows
    that anticommute with it. *)
val apply_pauli : t -> int -> pauli -> unit

(** [measure t q rng] measures qubit [q] in the Z basis, collapsing the
    state in place, and returns the outcome. Draws one fair coin from
    [rng] iff the outcome is random (some stabilizer anticommutes with
    [Z_q]); deterministic outcomes consume no randomness. *)
val measure : t -> int -> Mathkit.Rng.t -> bool

(** [measure_all t rng] measures every qubit in order and returns the
    outcome as a basis index (qubit 0 = highest-order bit). *)
val measure_all : t -> Mathkit.Rng.t -> int

(** [probabilities t] is the full 2^n Z-basis probability vector:
    uniform mass 2^-s on the 2^s-point support. Raises
    [Invalid_argument] above 24 qubits. *)
val probabilities : t -> float array

(** [to_statevector t] materializes the exact dense state (amplitudes
    are 2^(-s/2) times powers of i, up to the global phase fixed by
    making the lexicographically-derived base point real-positive).
    This is the Clifford-prefix hand-off to the dense backend. Raises
    [Invalid_argument] above 24 qubits. *)
val to_statevector : t -> Statevector.t

(** Frozen read-out structure for repeated probability extraction from
    sign-perturbed variants of one tableau. Conjugating a stabilizer
    state by a Pauli only flips row signs — the support's linear span
    never moves, only its affine base point — so a whole Monte-Carlo
    run over Pauli error trajectories can precompute the echelonized
    support once and price each trajectory at a handful of bit
    operations plus the 2^s support walk. *)
type readout

(** Freeze the read-out structure of [t] (typically the ideal end-state
    of a Clifford circuit). Raises [Invalid_argument] above 24
    qubits. *)
val readout : t -> readout

(** [flip_mask r ~xm] is the sign-flip pattern (one bit per frozen
    Z-constraint row) induced by conjugating the state with a Pauli
    whose X support is the qubit-indexed mask [xm]. It is linear in
    [xm]: the pattern of a product of Paulis is the [lxor] of theirs. *)
val flip_mask : readout -> xm:int -> int

(** [accumulate_readout r ~flips acc] adds the 2^n probability vector of
    the tableau with the given sign-flip pattern applied into [acc]
    (length 2^n), touching only the 2^s support entries; [~flips:0]
    adds [probabilities] of the frozen state. *)
val accumulate_readout : readout -> flips:int -> float array -> unit
