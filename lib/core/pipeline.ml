module Machine = Device.Machine
module Gateset = Device.Gateset

type level = Pass.level = N | OneQOpt | OneQOptC | OneQOptCN

let all_levels = Pass.all_levels
let level_name = Pass.level_name
let level_of_string = Pass.level_of_string
let level_strings = Pass.level_strings

(* Re-exported only so perfbench's [r.Triq.Pipeline.layout] still resolves. *)
type t = Compiled.t = {
  machine : Machine.t;
  compiler : string;
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

(* Built directly rather than through [Compiled.make], which would
   regenerate the day's calibration and re-check gate visibility. *)
let of_outcome ~level (o : Pass.outcome) =
  let s = o.Pass.state in
  {
    machine = s.Pass.machine;
    compiler = level_name level;
    day = s.Pass.config.Pass.Config.day;
    hardware = s.Pass.circuit;
    initial_placement = s.Pass.initial_placement;
    final_placement = s.Pass.final_placement;
    readout_map = s.Pass.readout_map;
    swap_count = s.Pass.swap_count;
    two_q_count = Ir.Circuit.two_q_count s.Pass.circuit;
    pulse_count =
      Gateset.circuit_pulse_count s.Pass.machine.Machine.basis s.Pass.circuit;
    flipped_cnots = s.Pass.flipped_cnots;
    esp =
      Compiled.estimated_success_probability s.Pass.machine s.Pass.calibration
        s.Pass.circuit;
    layout = s.Pass.layout;
    compile_time_s = o.Pass.compile_time_s;
    pass_times_s = o.Pass.pass_times_s;
  }

let compile_schedule ?(config = Pass.Config.default) machine circuit
    (schedule : Pass.Schedule.t) =
  of_outcome ~level:schedule.Pass.Schedule.level
    (Pass.run ~config machine circuit schedule)

let compile_level ?(config = Pass.Config.default) machine circuit ~level =
  compile_schedule ~config machine circuit (Pass.Schedule.of_level ~config level)

(* Kept only because perfbench calls it. *)
let to_compiled t = t
