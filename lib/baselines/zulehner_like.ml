module Machine = Device.Machine
module Topology = Device.Topology

let greedy_placement machine (flat : Ir.Circuit.t) =
  let topology = machine.Machine.topology in
  let n_hardware = Topology.n_qubits topology in
  let n_program = flat.Ir.Circuit.n_qubits in
  let dist = Common.hop_distances topology in
  let pairs = Triq.Placement.interactions flat in
  let weight = Array.make n_program 0 in
  let partners = Array.make n_program [] in
  List.iter
    (fun ((a, b), count) ->
      weight.(a) <- weight.(a) + count;
      weight.(b) <- weight.(b) + count;
      partners.(a) <- (b, count) :: partners.(a);
      partners.(b) <- (a, count) :: partners.(b))
    pairs;
  let order = Array.init n_program (fun i -> i) in
  Array.sort (fun a b -> compare (weight.(b), a) (weight.(a), b)) order;
  let placement = Array.make n_program (-1) in
  let used = Array.make n_hardware false in
  let centre =
    (* Start from the highest-degree hardware qubit. *)
    let best = ref 0 in
    for h = 1 to n_hardware - 1 do
      if Topology.degree topology h > Topology.degree topology !best then best := h
    done;
    !best
  in
  Array.iter
    (fun p ->
      let cost h =
        let partner_cost =
          List.fold_left
            (fun acc (other, count) ->
              if placement.(other) >= 0 then acc + (count * dist.(h).(placement.(other)))
              else acc)
            0 partners.(p)
        in
        (* Tie-break toward the centre to keep placements contiguous. *)
        (partner_cost, dist.(h).(centre), h)
      in
      let best = ref None in
      for h = 0 to n_hardware - 1 do
        if not used.(h) then
          match !best with
          | None -> best := Some (cost h)
          | Some c -> if cost h < c then best := Some (cost h)
      done;
      match !best with
      | Some (_, _, h) ->
        placement.(p) <- h;
        used.(h) <- true
      | None -> invalid_arg "Zulehner_like: program does not fit")
    order;
  placement

let compile ?(day = 0) machine circuit =
  if not (Machine.fits machine circuit) then
    invalid_arg "Zulehner_like.compile: program does not fit";
  let started_at = Sys.time () in
  let state, front_times = Common.start machine ~day circuit in
  let flat = state.Triq.Pass.circuit in
  let placement = greedy_placement machine flat in
  (* Hop-count routing = noise-unaware reliability matrix. *)
  let reliability =
    Triq.Reliability.compute_cached ~noise_aware:false
      ~calibration:state.Triq.Pass.calibration machine ~day
  in
  let routed =
    Triq.Router.route reliability machine.Machine.topology ~placement flat
  in
  Common.finalize ~compiler:"Zulehner" ~routed:routed.Triq.Router.circuit
    ~initial_placement:placement ~final_placement:routed.Triq.Router.final_placement
    ~swap_count:routed.Triq.Router.swap_count ~started_at ~front_times state
