module T = Text_out

let render out (c : Ir.Circuit.t) =
  T.char out '\n';
  let measures = Ir.Circuit.measure_count c in
  if measures > 0 then begin
    T.string out "DECLARE ro BIT[";
    T.int out measures;
    T.string out "]\n"
  end;
  let rotation name theta q =
    T.string out name;
    T.angle out theta;
    T.string out ") ";
    T.int out q
  in
  let two name a b =
    T.string out name;
    T.int out a;
    T.char out ' ';
    T.int out b
  in
  let next_cbit = ref 0 in
  List.iter
    (fun (g : Ir.Gate.t) ->
      (match g with
      | One (Rz theta, q) -> rotation "RZ(" theta q
      | One (Rx theta, q) -> rotation "RX(" theta q
      | Two (Cz, a, b) -> two "CZ " a b
      | Two (Iswap, a, b) -> two "ISWAP " a b
      | Measure q ->
        T.string out "MEASURE ";
        T.int out q;
        T.string out " ro[";
        T.int out !next_cbit;
        T.char out ']';
        incr next_cbit
      | other ->
        invalid_arg
          (Printf.sprintf "Quil_emit: gate %s is not Rigetti software-visible"
             (Ir.Gate.to_string other)));
      T.char out '\n')
    c.Ir.Circuit.gates;
  T.contents out

let header c =
  let out = T.create ~gates:(Ir.Circuit.gate_count c) in
  T.string out "# ";
  out

let emit_circuit ~name (c : Ir.Circuit.t) =
  let out = header c in
  T.string out name;
  render out c

let emit (compiled : Triq.Compiled.t) =
  (match compiled.Triq.Compiled.machine.Device.Machine.basis with
  | Device.Gateset.Rigetti_visible | Device.Gateset.Rigetti_parametric_visible -> ()
  | _ -> invalid_arg "Quil_emit.emit: executable is not in Rigetti form");
  let c = compiled.Triq.Compiled.hardware in
  let out = header c in
  T.target out compiled;
  render out c
