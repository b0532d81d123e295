(** The 2Q reliability matrix (Section 4.2, Figure 6).

    Entry (c, t) estimates the end-to-end reliability of performing a 2Q
    operation from qubit [c] to qubit [t], including the SWAP routing
    needed to co-locate them: TriQ finds, over all neighbours [t'] of [t],
    the maximum of (most reliable swap-path reliability from [c] to [t'])
    x (2Q gate reliability of the [t'-t] coupling). Swap-path reliability
    is the product over hops of (edge reliability)^3, one factor per CNOT
    of the 3-CNOT swap. The all-pairs swap computation is the
    Floyd-Warshall pass the paper describes.

    In noise-aware mode every coupling uses its calibrated error rate; in
    noise-unaware mode every coupling uses the device-average error, which
    reduces the computation to hop-count minimization. *)

type t

(** [compute ~noise_aware machine calibration] builds the matrix. *)
val compute : noise_aware:bool -> Device.Machine.t -> Device.Calibration.t -> t

(** [compute_cached ~noise_aware machine ~day] is {!compute} behind a
    process-wide cache keyed by (machine, day, noise_aware): repeated
    compiles against the same calibration (a sweep's common case) reuse
    the Floyd-Warshall and score matrices instead of redoing the O(n^3)
    work. Pass [?calibration] when the caller already generated the
    day's snapshot, to avoid regenerating it on a miss. The cache is
    mutex-guarded and safe to use from {!Parallel.Pool} workers. *)
val compute_cached :
  noise_aware:bool ->
  ?calibration:Device.Calibration.t ->
  Device.Machine.t ->
  day:int ->
  t

(** [cache_clear ()] empties the cache and zeroes the hit/miss counters —
    the explicit invalidation hook for callers that mutate calibration
    sources out from under the keys (none of the built-in machines do). *)
val cache_clear : unit -> unit

(** [(hits, misses)] since the last {!cache_clear}. *)
val cache_stats : unit -> int * int

(** Structural equality on every derived field (matrices, paths, readout)
    — the cache-correctness oracle used by the tests. *)
val equal : t -> t -> bool

(** [of_calibration ~noise_aware topology calibration] is the underlying
    computation when no [Machine.t] wrapper is at hand (tests, examples). *)
val of_calibration :
  noise_aware:bool -> Device.Topology.t -> Device.Calibration.t -> t

val n_qubits : t -> int

(** [score t c t'] is the end-to-end 2Q reliability estimate in [0, 1];
    0 when unreachable, and undefined (0) on the diagonal. *)
val score : t -> int -> int -> float

(** [score_matrix t] is the dense matrix behind {!score}: row [c] holds
    the scores from [c]. It is [t]'s own array, shared with every caller
    (the layout engine reads it per compile), so it must not be mutated. *)
val score_matrix : t -> float array array

(** [edge_reliability t a b] is the direct coupling reliability used for
    edge [{a,b}]; raises [Not_found] when uncoupled. *)
val edge_reliability : t -> int -> int -> float

(** [swap_path t c tgt] is the hardware-qubit path [c; ...; t'] along
    which SWAPs realize the best 2Q between [c] and [tgt]: [t'] is the
    chosen best neighbour of [tgt] ([t' = c] and a singleton path when
    they are already coupled). Raises [Not_found] when unreachable. *)
val swap_path : t -> int -> int -> int list

(** [swap_reliability t a b] is the best swap-path reliability from [a] to
    [b] (1.0 when [a = b]). *)
val swap_reliability : t -> int -> int -> float

(** [path_between t a b] is the max-product swap path [a; ...; b] realizing
    [swap_reliability t a b]; raises [Not_found] when unreachable. *)
val path_between : t -> int -> int -> int list

(** [readout_reliability t q] is 1 - readout error of [q]. *)
val readout_reliability : t -> int -> float

(** [readout_vector t] is the array behind {!readout_reliability},
    shared like {!score_matrix} and likewise never to be mutated. *)
val readout_vector : t -> float array

(** [pp] prints the matrix in the layout of Figure 6. *)
val pp : Format.formatter -> t -> unit
