(** A complete machine description: everything TriQ takes as
    device-specific compile-time input (Figure 4, right-hand inputs).

    A machine bundles its topology, the software-visible gate interface,
    and the calibration profile from which daily noise snapshots are
    generated. *)

type t = private {
  name : string;
  basis : Gateset.basis;
  topology : Topology.t;
  profile : Calibration.profile;
  seed : int;  (** root seed of this machine's calibration history *)
}

val create :
  name:string ->
  basis:Gateset.basis ->
  topology:Topology.t ->
  profile:Calibration.profile ->
  seed:int ->
  t

val vendor : t -> Gateset.vendor
val n_qubits : t -> int

(** [calibration m ~day] is the machine's published calibration snapshot
    for [day] (deterministic in [m.seed] and [day]). *)
val calibration : t -> day:int -> Calibration.t

(** [fits m c] is true when circuit [c] has at most [n_qubits m] qubits —
    benchmarks that do not fit are the "X" entries in the paper's plots. *)
val fits : t -> Ir.Circuit.t -> bool

(** [require_fits m c] is [Ok ()] when [fits m c], and otherwise an
    [Error] reading ["program needs N qubits; M has K"]. *)
val require_fits : t -> Ir.Circuit.t -> (unit, string) result

(** [duration_us m c] estimates execution time of a hardware-level circuit
    as critical-path length weighted by per-gate durations. *)
val duration_us : t -> Ir.Circuit.t -> float

val pp : Format.formatter -> t -> unit
