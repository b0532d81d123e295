(** The complete TriQ toolflow (Figure 4) and its optimization levels
    (Table 1).

    - [N]: default (identity) qubit mapping, naive gate-by-gate
      translation to the software-visible set;
    - [OneQOpt]: adds quaternion-based 1Q coalescing;
    - [OneQOptC]: adds communication-optimized mapping and routing over a
      reliability matrix built from device-average error rates
      (noise-unaware);
    - [OneQOptCN]: reliability matrix built from the day's calibration
      data (noise-aware mapping and routing).

    All levels route through the topology, repair CNOT orientation on
    directed machines, and emit only software-visible gates.

    The toolflow itself is implemented as first-class passes in {!Pass};
    this module is the entry point: {!compile_level} runs a level's
    named schedule under a {!Pass.Config.t}, {!compile_schedule} runs any
    {!Pass.Schedule.t}. Both return the executable as a {!Compiled.t}
    whose [compiler] is the level's display name. *)

type level = Pass.level = N | OneQOpt | OneQOptC | OneQOptCN

val all_levels : level list
val level_name : level -> string

(** Case-insensitive; accepts short ("1qoptcn") and display
    ("TriQ-1QOptCN") forms. *)
val level_of_string : string -> level option

(** The accepted level spellings, for error messages. *)
val level_strings : string list

(** The compiled executable: {!Compiled.t}, re-exported so that the
    labels also resolve through [Pipeline]. Kept only for perfbench,
    which reads [r.Triq.Pipeline.layout]. *)
type t = Compiled.t = {
  machine : Device.Machine.t;
  compiler : string;  (** {!level_name} of the compiled level *)
  day : int;
  hardware : Ir.Circuit.t;
  initial_placement : int array;
  final_placement : int array;
  readout_map : (int * int) list;
  swap_count : int;
  two_q_count : int;
  pulse_count : int;
  flipped_cnots : int;
  esp : float;
  layout : Layout.Report.t option;
  compile_time_s : float;
  pass_times_s : (string * float) list;
}

(** [compile_level ?config machine circuit ~level] runs the level's
    named schedule on a program circuit (which may contain
    Toffoli/Fredkin etc.; it is flattened first) under [config] (default
    {!Pass.Config.default}): [level] selects {!Pass.Schedule.of_level}
    and the config's [day]/[layout]/[router]/[peephole]/[validate]
    knobs apply exactly as documented on {!Pass.Config.t}.

    Raises [Invalid_argument] if the program has more qubits than the
    machine. *)
val compile_level :
  ?config:Pass.Config.t -> Device.Machine.t -> Ir.Circuit.t -> level:level -> Compiled.t

(** [compile_schedule ?config machine circuit schedule] runs an arbitrary
    pass schedule (e.g. one edited with {!Pass.Schedule.disable} or built
    by {!Pass.Schedule.make}) under [config] (default
    {!Pass.Config.default}) and packages the final pass state as an
    executable. *)
val compile_schedule :
  ?config:Pass.Config.t -> Device.Machine.t -> Ir.Circuit.t -> Pass.Schedule.t -> Compiled.t

(** [to_compiled t] is [t]. Kept only because perfbench calls it. *)
val to_compiled : t -> Compiled.t
