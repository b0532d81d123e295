(** The pipeline's entry to the layout engine: lowers a circuit plus
    reliability matrix to a {!Layout.Problem.t}, dispatches on the
    configured strategy (B&B / SMT / greedy / portfolio), and fronts the
    process-wide layout cache keyed on (canonical interaction-graph form,
    machine, day, objective, strategy, budget).

    Every solve runs inside a [layout.solve] span; the cache maintains
    [layout.cache.hits]/[.misses]/[.evictions] counters. With the default
    config (B&B strategy, cache on) the returned placement is the one
    [Layout.Bb.solve (problem reliability circuit)] finds. *)

(** [interactions c] aggregates the program's 2Q operations as
    [((a, b), count)] pairs over program qubits, with (a, b) in first-seen
    orientation. The circuit must be flattened (no Ccx/Cswap). *)
val interactions : Ir.Circuit.t -> ((int * int) * int) list

(** [trivial ~n_program ~n_hardware] is the identity placement 0..n-1 used
    by the default-mapping configurations (and by the Qiskit baseline).
    Raises the standard [circuit.bounds] diagnostic when the program does
    not fit. *)
val trivial : n_program:int -> n_hardware:int -> int array

(** [problem ?objective reliability circuit] lowers a flattened circuit.
    Raises the standard [circuit.bounds] diagnostic when the program does
    not fit. *)
val problem :
  ?objective:Layout.Problem.objective -> Reliability.t -> Ir.Circuit.t -> Layout.Problem.t

(** [solve ?config ~reliability ~machine_name ~day circuit] consults the
    cache (unless disabled) and otherwise runs the configured strategy. *)
val solve :
  ?config:Layout.Config.t ->
  reliability:Reliability.t ->
  machine_name:string ->
  day:int ->
  Ir.Circuit.t ->
  Layout.Report.t

(** Process-wide layout-cache maintenance (mirrors
    [Reliability.cache_clear]/[cache_stats]). *)
val cache_clear : unit -> unit

val cache_stats : unit -> Layout.Cache.stats
