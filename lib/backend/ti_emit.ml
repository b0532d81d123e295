module T = Text_out

let render out (c : Ir.Circuit.t) =
  T.char out '\n';
  List.iter
    (fun (g : Ir.Gate.t) ->
      (match g with
      | One (Rxy (theta, phi), q) ->
        T.string out "R   ";
        T.int out q;
        T.char out ' ';
        T.angle out theta;
        T.char out ' ';
        T.angle out phi
      | One (Rz lambda, q) ->
        T.string out "RZ  ";
        T.int out q;
        T.char out ' ';
        T.angle out lambda
      | Two (Xx chi, a, b) ->
        T.string out "XX  ";
        T.int out a;
        T.char out ' ';
        T.int out b;
        T.char out ' ';
        T.angle out chi
      | Measure q ->
        T.string out "MEAS ";
        T.int out q
      | other ->
        invalid_arg
          (Printf.sprintf "Ti_emit: gate %s is not UMD software-visible"
             (Ir.Gate.to_string other)));
      T.char out '\n')
    c.Ir.Circuit.gates;
  T.contents out

let header c =
  let out = T.create ~gates:(Ir.Circuit.gate_count c) in
  T.string out "; ";
  out

let emit_circuit ~name (c : Ir.Circuit.t) =
  let out = header c in
  T.string out name;
  render out c

let emit (compiled : Triq.Compiled.t) =
  if compiled.Triq.Compiled.machine.Device.Machine.basis <> Device.Gateset.Umd_visible
  then invalid_arg "Ti_emit.emit: executable is not in UMD form";
  let c = compiled.Triq.Compiled.hardware in
  let out = header c in
  T.target out compiled;
  render out c
