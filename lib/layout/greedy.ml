(* Greedy degree-ordered placement: place program qubits busiest-first, each
   on the unused hardware qubit with the best incremental
   (min, log-product) cost against already-placed neighbours (lowest
   hardware index on exact ties). Never optimal by proof, but instant. *)

let solve (pr : Problem.t) : Report.t =
  let n_program = pr.n_program and n_hardware = pr.n_hardware in
  let partners = Problem.partners pr in
  let measured_set = Problem.measured_set pr in
  let order = Problem.order pr in
  let placement = Array.make n_program (-1) in
  let used = Array.make n_hardware false in
  let steps = ref 0 in
  let log_floor = Problem.log_floor in
  Array.iter
    (fun p ->
      let best_h = ref (-1) and best_m = ref neg_infinity and best_l = ref neg_infinity in
      for h = 0 to n_hardware - 1 do
        if not used.(h) then begin
          incr steps;
          let min_rel = ref 1.0 and log_prod = ref 0.0 in
          let account r count =
            if r < !min_rel then min_rel := r;
            log_prod :=
              !log_prod +. (float_of_int count *. log (Float.max r log_floor))
          in
          List.iter
            (fun (other, oriented, count) ->
              let oh = placement.(other) in
              if oh >= 0 then
                account (if oriented then pr.score.(h).(oh) else pr.score.(oh).(h)) count)
            partners.(p);
          if measured_set.(p) then account pr.readout.(h) 1;
          let by_min = Float.compare !min_rel !best_m in
          if by_min > 0 || (by_min = 0 && Float.compare !log_prod !best_l > 0) then begin
            best_m := !min_rel;
            best_l := !log_prod;
            best_h := h
          end
        end
      done;
      placement.(p) <- !best_h;
      used.(!best_h) <- true)
    order;
  let objective, log_product = Problem.evaluate pr placement in
  {
    Report.strategy = "greedy";
    placement;
    objective;
    log_product;
    proven_optimal = false;
    work = { Report.no_work with heuristic_steps = !steps };
    cache = Report.Bypass;
  }
