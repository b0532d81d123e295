type t = {
  name : string;
  basis : Gateset.basis;
  topology : Topology.t;
  profile : Calibration.profile;
  seed : int;
}

let create ~name ~basis ~topology ~profile ~seed =
  if not (Topology.is_connected topology) then
    invalid_arg "Machine.create: disconnected topology";
  { name; basis; topology; profile; seed }

let vendor m = Gateset.vendor_of_basis m.basis

let n_qubits m = Topology.n_qubits m.topology

let calibration m ~day = Calibration.generate ~seed:m.seed ~day m.topology m.profile

let fits m (c : Ir.Circuit.t) = c.Ir.Circuit.n_qubits <= n_qubits m

let require_fits m (c : Ir.Circuit.t) =
  if fits m c then Ok ()
  else
    Error
      (Printf.sprintf "program needs %d qubits; %s has %d" c.Ir.Circuit.n_qubits m.name
         (n_qubits m))

let duration_us m (c : Ir.Circuit.t) =
  (* Critical path: per-qubit clocks advanced by each gate's duration. *)
  let clocks = Array.make (max c.Ir.Circuit.n_qubits 1) 0.0 in
  List.iter
    (fun g ->
      let d =
        match (g : Ir.Gate.t) with
        | One _ -> m.profile.Calibration.one_q_time_us
        | Two _ -> m.profile.Calibration.two_q_time_us
        | Ccx _ | Cswap _ ->
          (* Undecomposed multi-qubit gates get a conservative 6x 2Q cost. *)
          6.0 *. m.profile.Calibration.two_q_time_us
        | Measure _ -> m.profile.Calibration.one_q_time_us
      in
      let qs = Ir.Gate.qubits g in
      let start = List.fold_left (fun acc q -> Float.max acc clocks.(q)) 0.0 qs in
      List.iter (fun q -> clocks.(q) <- start +. d) qs)
    c.Ir.Circuit.gates;
  Array.fold_left Float.max 0.0 clocks

let pp fmt m =
  Format.fprintf fmt "%s (%s): %d qubits, %d couplings, basis %s" m.name
    (Gateset.vendor_name (vendor m))
    (n_qubits m)
    (Topology.edge_count m.topology)
    (Gateset.basis_name m.basis)
