module Rng = Mathkit.Rng
module Machine = Device.Machine
module Compiled = Triq.Compiled

type outcome = {
  distribution : (string * float) list;
  counts : (string * int) list;
  success_rate : float;
  dominant_correct : bool;
  trials : int;
  trajectories : int;
}

(* Trajectories are grouped into fixed-size blocks: a block is the unit of
   work handed to the domain pool, and block partial sums are folded in
   block order on the calling domain. Because the blocking (and the
   per-trajectory RNG streams) never depend on the pool size, the result
   is bit-for-bit identical for every [-j]. *)
let traj_block = 25

module Config = struct
  type backend = Auto | Statevector | Stabilizer

  let backend_of_string = function
    | "auto" -> Some Auto
    | "statevector" -> Some Statevector
    | "stabilizer" -> Some Stabilizer
    | _ -> None

  let backend_to_string = function
    | Auto -> "auto"
    | Statevector -> "statevector"
    | Stabilizer -> "stabilizer"

  type t = {
    seed : int;
    trials : int;
    trajectories : int;
    day : int option;
    sample_counts : bool;
    explicit_t1 : bool;
    pool : Parallel.Pool.t option;
    backend : backend;
    fusion : bool;
  }

  let default =
    {
      seed = 0xC0FFEE;
      trials = 8192;
      trajectories = 300;
      day = None;
      sample_counts = false;
      explicit_t1 = false;
      pool = None;
      backend = Auto;
      fusion = true;
    }

  let make ?(seed = 0xC0FFEE) ?(trials = 8192) ?(trajectories = 300) ?day
      ?(sample_counts = false) ?(explicit_t1 = false) ?pool ?(backend = Auto)
      ?(fusion = true) () =
    {
      seed;
      trials;
      trajectories;
      day;
      sample_counts;
      explicit_t1;
      pool;
      backend;
      fusion;
    }
end

let m_trajectories = Obs.Metrics.counter "sim.trajectories"
let m_blocks = Obs.Metrics.counter "sim.blocks"

(* One prepared (compacted) gate: operands are compact simulator
   indices, matrices/error probabilities precomputed. *)
type pgate = {
  cg : Ir.Gate.t;
  matrix : Mathkit.Matrix.t;
  p_err : float;
  gamma : float;
}

(* Under [Auto], circuits whose Clifford prefix has at least this many
   gates run the prefix on the stabilizer tableau before materializing
   amplitudes for the dense tail. *)
let hybrid_threshold = 4

(* Upper bound, in floats, on the clean-state checkpoints one simulation
   keeps along its fused plan: 512 KiB, 2^(k+1) floats per checkpoint. *)
let checkpoint_floats = 1 lsl 16

(* A fused plan with its clean-state checkpoints: [checkpoints.(j)] is
   the clean state before step [j * stride]; [step_of] maps a prepared
   gate to the step that holds it. *)
type resumable = {
  steps : Fusion.step array;
  step_of : int array;
  stride : int;
  checkpoints : Statevector.t array;
  ideal : float array;
}

let simulate ?(config = Config.default) compiled spec =
  let {
    Config.seed;
    trials;
    trajectories;
    day;
    sample_counts;
    explicit_t1;
    pool;
    backend;
    fusion;
  } =
    config
  in
  (* Zero trajectories would silently divide the averaged distribution by
     zero and return all-NaN outcomes; zero trials the same for counts. *)
  if trials < 1 then invalid_arg "Runner.simulate: trials must be >= 1";
  if trajectories < 1 then invalid_arg "Runner.simulate: trajectories must be >= 1";
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  Obs.Span.with_span
    ~attrs:
      [
        ("machine", Obs.Span.Str compiled.Compiled.machine.Machine.name);
        ("trajectories", Obs.Span.Int trajectories);
        ("trials", Obs.Span.Int trials);
      ]
    "sim.run"
  @@ fun () ->
  let hardware = compiled.Compiled.hardware in
  let machine = compiled.Compiled.machine in
  (* [day] overrides the calibration the executable runs under — by default
     the one it was compiled against; passing a later day models running a
     stale executable after the machine drifted. *)
  let day = Option.value ~default:compiled.Compiled.day day in
  let calibration = Machine.calibration machine ~day in
  let noise = Noise.create machine calibration in
  (* Simulate only the qubits the hardware circuit touches. *)
  let used = Ir.Circuit.used_qubits hardware in
  let k = List.length used in
  if k = 0 then invalid_arg "Runner.simulate: empty circuit";
  if k > 20 then invalid_arg "Runner.simulate: circuit touches too many qubits to simulate";
  (* Hardware qubit -> compact simulated index, O(1) on the hot path. *)
  let qubit_of =
    let table = Array.make (1 + List.fold_left max 0 used) (-1) in
    List.iteri (fun i q -> table.(q) <- i) used;
    fun h -> table.(h)
  in
  (* Per-gate precomputation: matrices, compact operands, error probs. *)
  let body =
    List.filter (fun g -> not (Ir.Gate.is_measure g)) hardware.Ir.Circuit.gates
  in
  let prepared =
    Array.of_list
      (List.map
         (fun g ->
           (* With explicit T1 the decoherence contribution is modelled as a
              relaxation channel rather than folded into the Pauli error. *)
           let p =
             if explicit_t1 then Noise.gate_error_prob_raw noise g
             else Noise.gate_error_prob noise g
           in
           let gamma = if explicit_t1 then Noise.relaxation_gamma noise g else 0.0 in
           match (g : Ir.Gate.t) with
           | One (kind, q) ->
             {
               cg = Ir.Gate.One (kind, qubit_of q);
               matrix = Ir.Matrices.one_q kind;
               p_err = p;
               gamma;
             }
           | Two (kind, a, b) ->
             {
               cg = Ir.Gate.Two (kind, qubit_of a, qubit_of b);
               matrix = Ir.Matrices.two_q kind;
               p_err = p;
               gamma;
             }
           | Measure _ | Ccx _ | Cswap _ -> assert false)
         body)
  in
  let n_gates = Array.length prepared in
  (* Backend dispatch: derived Clifford actions (memoized per gate
     shape) decide how much of the circuit the polynomial-time tableau
     can carry. Explicit T1 relaxation is not a Clifford channel, so it
     pins the dense backend. *)
  let actions =
    Array.map (fun pg -> Dataflow.Tableau.Action.of_gate pg.cg) prepared
  in
  let qs_arr =
    Array.map (fun pg -> Array.of_list (Ir.Gate.qubits pg.cg)) prepared
  in
  let prefix_len =
    let i = ref 0 in
    while !i < n_gates && actions.(!i) <> None do incr i done;
    !i
  in
  let mode =
    match backend with
    | Config.Statevector -> `Sv
    | Config.Stabilizer ->
      if explicit_t1 then
        invalid_arg
          "Runner.simulate: stabilizer backend cannot model explicit T1 \
           relaxation";
      if prefix_len < n_gates then
        invalid_arg
          "Runner.simulate: stabilizer backend requires a Clifford-only \
           circuit";
      `Stab
    | Config.Auto ->
      if explicit_t1 then `Sv
      else if prefix_len = n_gates then `Stab
      else if prefix_len >= hybrid_threshold then `Hybrid
      else `Sv
  in
  let mode_name =
    match mode with `Stab -> "stabilizer" | `Hybrid -> "hybrid" | `Sv -> "statevector"
  in
  (* Fusion plans (statevector paths only; explicit T1 interleaves a
     stochastic channel after every gate, which fused groups cannot
     honor). The plan depends only on the circuit, never on the pool or
     the error draws, so cross-pool determinism is preserved. *)
  let use_fusion = fusion && not explicit_t1 in
  let members_of lo hi =
    Array.init (hi - lo) (fun j ->
        let pg = prepared.(lo + j) in
        Fusion.member ~idx:(lo + j) pg.cg pg.matrix)
  in
  let plan, apps =
    Obs.Span.with_span
      ~attrs:
        [
          ("backend", Obs.Span.Str mode_name);
          ("fusion", Obs.Span.Str (if use_fusion then "on" else "off"));
          ("gates", Obs.Span.Int n_gates);
          ("clifford_prefix", Obs.Span.Int prefix_len);
        ]
      "sim.prepare"
    @@ fun () ->
    (* Tableau-borne gates (the whole circuit under [`Stab], the prefix
       under [`Hybrid]) compile to dense per-gate lookup tables. *)
    let n_apps =
      match mode with `Stab -> n_gates | `Hybrid -> prefix_len | `Sv -> 0
    in
    let apps =
      Array.init n_apps (fun i ->
          Stabilizer.compile_action (Option.get actions.(i)) qs_arr.(i))
    in
    (* [`Sv] fuses the whole circuit, [`Hybrid] its dense tail. *)
    match mode with
    | `Sv when use_fusion && n_gates > 0 ->
      (Some (Fusion.plan ~n:k (members_of 0 n_gates)), apps)
    | `Hybrid when use_fusion && prefix_len < n_gates ->
      (Some (Fusion.plan ~n:k (members_of prefix_len n_gates)), apps)
    | _ -> (None, apps)
  in
  let pauli = [| Ir.Matrices.one_q X; Ir.Matrices.one_q Y; Ir.Matrices.one_q Z |] in
  let tab_pauli = [| Stabilizer.X; Stabilizer.Y; Stabilizer.Z |] in
  (* A 2Q error draws a non-identity Pauli pair (pa, pb) by rejection,
     packed as [pa lsl 2 lor pb] so that the draw allocates nothing. *)
  let rec draw_two rng =
    let pa = Rng.int rng 4 in
    let pb = Rng.int rng 4 in
    if pa = 0 && pb = 0 then draw_two rng else (pa lsl 2) lor pb
  in
  let inject_sv state rng (cg : Ir.Gate.t) =
    match cg with
    | One (_, q) -> Statevector.apply_one state pauli.(Rng.int rng 3) q
    | Two (_, a, b) ->
      let pair = draw_two rng in
      let pa = pair lsr 2 and pb = pair land 3 in
      if pa > 0 then Statevector.apply_one state pauli.(pa - 1) a;
      if pb > 0 then Statevector.apply_one state pauli.(pb - 1) b
    | Measure _ | Ccx _ | Cswap _ -> assert false
  in
  let inject_tab tab rng (cg : Ir.Gate.t) =
    match cg with
    | One (_, q) -> Stabilizer.apply_pauli tab q tab_pauli.(Rng.int rng 3)
    | Two (_, a, b) ->
      let pair = draw_two rng in
      let pa = pair lsr 2 and pb = pair land 3 in
      if pa > 0 then Stabilizer.apply_pauli tab a tab_pauli.(pa - 1);
      if pb > 0 then Stabilizer.apply_pauli tab b tab_pauli.(pb - 1)
    | Measure _ | Ccx _ | Cswap _ -> assert false
  in
  (* Same error-Pauli draws as [inject_tab] (identical RNG consumption),
     xored into a Pauli frame. Pauli index order matches [tab_pauli]:
     0 = X, 1 = Y, 2 = Z. *)
  let xor_pauli (f : Stabilizer.frame) p q =
    if p <> 2 then f.xm <- f.xm lxor (1 lsl q);
    if p <> 0 then f.zm <- f.zm lxor (1 lsl q)
  in
  let inject_frame f rng (cg : Ir.Gate.t) =
    match cg with
    | One (_, q) -> xor_pauli f (Rng.int rng 3) q
    | Two (_, a, b) ->
      let pair = draw_two rng in
      let pa = pair lsr 2 and pb = pair land 3 in
      if pa > 0 then xor_pauli f (pa - 1) a;
      if pb > 0 then xor_pauli f (pb - 1) b
    | Measure _ | Ccx _ | Cswap _ -> assert false
  in
  (* Every trajectory draws from its own stream, split off the master in
     trajectory order; the remaining master stream serves shot sampling.
     Splitting decouples a trajectory's randomness from whichever domain
     happens to execute it. *)
  let master = Rng.create seed in
  let traj_rng = Array.make (max trajectories 1) master in
  for t = 0 to trajectories - 1 do
    traj_rng.(t) <- Rng.split master
  done;
  let counts_rng = Rng.split master in
  (* Sample the error pattern into the block's [flags] first: clean
     trajectories (the common case on good mappings) reuse the cached
     ideal output without re-simulating. Returns the first erred gate,
     or -1 for a clean trajectory. *)
  let sample_errors rng flags =
    let first = ref (-1) in
    for i = 0 to n_gates - 1 do
      let p = prepared.(i).p_err in
      let e = p > 0.0 && Rng.bool rng p in
      if e && !first < 0 then first := i;
      flags.(i) <- e
    done;
    !first
  in
  (* Unfused statevector execution of gates [lo, hi) with error
     injection — the fusion-off and explicit-T1 path. *)
  let run_range_sv state rng flags lo hi =
    for i = lo to hi - 1 do
      let pg = prepared.(i) in
      (match pg.cg with
      | One (_, q) -> Statevector.apply_one state pg.matrix q
      | Two (_, a, b) -> Statevector.apply_two state pg.matrix a b
      | Measure _ | Ccx _ | Cswap _ -> assert false);
      if flags.(i) then inject_sv state rng pg.cg;
      if pg.gamma > 0.0 then
        match pg.cg with
        | One (_, q) -> ignore (Statevector.relax state q ~gamma:pg.gamma rng)
        | Two (_, a, b) ->
          ignore (Statevector.relax state a ~gamma:pg.gamma rng);
          ignore (Statevector.relax state b ~gamma:pg.gamma rng)
        | Measure _ | Ccx _ | Cswap _ -> assert false
    done
  in
  (* Fused execution of [steps] from step [from] on: a step whose gates
     are all clean applies as one kernel pass; a step containing an
     erred gate falls back to its member gates one by one, injecting the
     Pauli right after the erred gate (per-wire order is preserved by
     construction, so this is exact). *)
  let run_steps state rng flags steps from =
    for s = from to Array.length steps - 1 do
      let st = steps.(s) in
      let ms = Fusion.step_members st in
      let erred = ref false in
      for j = 0 to Array.length ms - 1 do
        if flags.(ms.(j).Fusion.idx) then erred := true
      done;
      if !erred then
        for j = 0 to Array.length ms - 1 do
          let m = ms.(j) in
          Fusion.apply_step state m.solo;
          if flags.(m.idx) then inject_sv state rng m.gate
        done
      else Fusion.apply_step state st
    done
  in
  (* Tableau execution of the (Clifford) gates [lo, hi): Pauli errors
     are themselves Clifford, so erred trajectories stay polynomial. *)
  let run_range_tab tab rng flags lo hi =
    for i = lo to hi - 1 do
      Stabilizer.apply_app tab apps.(i);
      if flags.(i) then inject_tab tab rng prepared.(i).cg
    done
  in
  let clean_tab hi =
    let tab = Stabilizer.init k in
    for i = 0 to hi - 1 do
      Stabilizer.apply_app tab apps.(i)
    done;
    tab
  in
  (* Per-mode shared precomputation. [`Stab]: the ideal end-state's
     frozen read-out — error trajectories never touch a tableau, they
     only carry a Pauli frame to the circuit end (one row, O(1) per
     gate) and re-price the support's base point. [`Hybrid]: the clean
     prefix state, the start of the tail whenever no prefix gate erred
     (the common case — the prefix is a minority of the gates). *)
  let stab_readout =
    match mode with
    | `Stab -> Some (Stabilizer.readout (clean_tab n_gates))
    | `Hybrid | `Sv -> None
  in
  let prefix_state =
    match mode with
    | `Hybrid -> Some (Stabilizer.to_statevector (clean_tab prefix_len))
    | `Stab | `Sv -> None
  in
  let start_state () =
    match prefix_state with Some s -> s | None -> Statevector.init k
  in
  let dim = 1 lsl k in
  (* Clean run of the fused plan, keeping the clean amplitudes before
     every [stride]-th step. A checkpoint is made by the same
     [Fusion.apply_step] kernels a clean trajectory runs, so an erred
     trajectory can resume from the last one at or before its earliest
     erred step, bit for bit as if it had run from the start. At most
     [checkpoint_floats] are kept; when only the start state fits,
     nothing is stored and every trajectory resumes from the start. *)
  let resumable =
    Option.map
      (fun plan ->
        let steps = Fusion.steps plan in
        let m = Array.length steps in
        let slots = min m (checkpoint_floats / (2 * dim)) in
        let stride = if slots <= 1 then m else (m + slots - 1) / slots in
        let start = start_state () in
        let checkpoints = Array.make ((m + stride - 1) / stride) start in
        let state = Statevector.copy start in
        let step_of = Array.make n_gates (-1) in
        Array.iteri
          (fun s st ->
            if s > 0 && s mod stride = 0 then
              checkpoints.(s / stride) <- Statevector.copy state;
            Fusion.apply_step state st;
            Array.iter
              (fun (mb : Fusion.member) -> step_of.(mb.idx) <- s)
              (Fusion.step_members st))
          steps;
        { steps; step_of; stride; checkpoints; ideal = Statevector.probabilities state })
      plan
  in
  let clean_range_sv state lo hi =
    for i = lo to hi - 1 do
      let pg = prepared.(i) in
      match pg.cg with
      | One (_, q) -> Statevector.apply_one state pg.matrix q
      | Two (_, a, b) -> Statevector.apply_two state pg.matrix a b
      | Measure _ | Ccx _ | Cswap _ -> assert false
    done
  in
  (* Clean trajectories all coincide: compute the ideal output once and
     reuse it whenever the sampled error pattern is empty. *)
  let ideal_probs =
    match (mode, resumable) with
    | `Stab, _ ->
      let probs = Array.make dim 0.0 in
      Stabilizer.accumulate_readout (Option.get stab_readout) ~flips:0 probs;
      probs
    | (`Hybrid | `Sv), Some r -> r.ideal
    | (`Hybrid | `Sv), None ->
      let state = Statevector.copy (start_state ()) in
      clean_range_sv state (if mode = `Hybrid then prefix_len else 0) n_gates;
      Statevector.probabilities state
  in
  (* Runs one trajectory whose first erred gate is [first] (-1 only
     under explicit T1, where clean trajectories run too) and adds its
     output distribution into [partial]. [frame] and [scratch] are the
     block's reusable Pauli frame and fused-path state. *)
  let run_trajectory rng flags first ~frame ~scratch partial =
    match (mode, resumable) with
    | `Stab, _ ->
      (* Sign-flip trick: the end-state of an erred trajectory is
         P' |ideal>, where P' is the product of the injected errors each
         conjugated through the gates after it, and a Pauli only flips
         the signs of the stabilizer rows it anticommutes with. Both
         conjugation and [flip_mask] are linear over GF(2), so one frame
         carried forward from the first error — conjugated through each
         gate, then xored with that gate's error — yields the same flips
         as propagating every error on its own. *)
      let readout = Option.get stab_readout in
      frame.Stabilizer.xm <- 0;
      frame.zm <- 0;
      for i = first to n_gates - 1 do
        Stabilizer.conjugate_frame apps.(i) frame;
        if flags.(i) then inject_frame frame rng prepared.(i).cg
      done;
      Stabilizer.accumulate_readout readout
        ~flips:(Stabilizer.flip_mask readout ~xm:frame.xm)
        partial
    | `Hybrid, _ when first < prefix_len ->
      let tab = Stabilizer.init k in
      run_range_tab tab rng flags 0 prefix_len;
      let state = Stabilizer.to_statevector tab in
      (match resumable with
      | Some r -> run_steps state rng flags r.steps 0
      | None -> run_range_sv state rng flags prefix_len n_gates);
      Statevector.accumulate_probabilities state partial
    | (`Hybrid | `Sv), Some r ->
      (* Fusion emits steps out of gate order (a wire's pending 1Q run
         is flushed only when a 2Q gate or the end reaches it), so the
         step of the first erred gate may follow another erred step:
         resume before the minimum step over all erred gates. *)
      let earliest = ref max_int in
      for i = first to n_gates - 1 do
        if flags.(i) && r.step_of.(i) < !earliest then earliest := r.step_of.(i)
      done;
      let c = !earliest / r.stride in
      let state = Option.get scratch in
      Statevector.blit ~src:r.checkpoints.(c) ~dst:state;
      run_steps state rng flags r.steps (c * r.stride);
      Statevector.accumulate_probabilities state partial
    | `Hybrid, None ->
      let state = Statevector.copy (Option.get prefix_state) in
      run_range_sv state rng flags prefix_len n_gates;
      Statevector.accumulate_probabilities state partial
    | `Sv, None ->
      let state = Statevector.init k in
      run_range_sv state rng flags 0 n_gates;
      Statevector.accumulate_probabilities state partial
  in
  let run_block b =
    let partial = Array.make dim 0.0 in
    let flags = Array.make n_gates false in
    let frame = { Stabilizer.xm = 0; zm = 0 } in
    let scratch = Option.map (fun _ -> Statevector.init k) resumable in
    let last = min trajectories ((b + 1) * traj_block) - 1 in
    for t = b * traj_block to last do
      let rng = traj_rng.(t) in
      let first = sample_errors rng flags in
      (* Explicit relaxation is stochastic in every trajectory, so the
         clean-trajectory shortcut only applies without it. *)
      if first < 0 && not explicit_t1 then
        for i = 0 to dim - 1 do
          partial.(i) <- partial.(i) +. ideal_probs.(i)
        done
      else run_trajectory rng flags first ~frame ~scratch partial
    done;
    partial
  in
  let n_blocks = (trajectories + traj_block - 1) / traj_block in
  Obs.Metrics.incr m_trajectories ~by:trajectories;
  Obs.Metrics.incr m_blocks ~by:n_blocks;
  (* Each trajectory block gets its own span so a Chrome trace shows how
     blocks spread across pool domains (tid = domain). The wrapper only
     exists while the sink is enabled — the common path hands the bare
     closure to the pool. *)
  let traced_block =
    if Obs.Span.enabled () then fun b ->
      Obs.Span.with_span
        ~attrs:[ ("block", Obs.Span.Int b) ]
        "sim.block"
        (fun () -> run_block b)
    else run_block
  in
  let partials = Parallel.Pool.map pool traced_block (List.init n_blocks Fun.id) in
  let avg = Array.make dim 0.0 in
  List.iter
    (fun partial ->
      for i = 0 to dim - 1 do
        avg.(i) <- avg.(i) +. partial.(i)
      done)
    partials;
  for i = 0 to dim - 1 do
    avg.(i) <- avg.(i) /. float_of_int trajectories
  done;
  (* Readout: program qubits in spec order -> hardware -> compact. *)
  let measured_program = spec.Ir.Spec.measured in
  let compact_positions =
    List.map
      (fun p ->
        match List.assoc_opt p compiled.Compiled.readout_map with
        | Some hw -> qubit_of hw
        | None ->
          invalid_arg
            (Printf.sprintf "Runner.simulate: program qubit %d is not measured" p))
      measured_program
  in
  let flip =
    Array.of_list
      (List.map
         (fun p ->
           let hw = List.assoc p compiled.Compiled.readout_map in
           Noise.readout_flip_prob noise hw)
         measured_program)
  in
  let projected = Dist.project avg k compact_positions in
  let final = Dist.corrupt_readout projected flip in
  let distribution = Dist.to_strings final in
  let counts =
    if sample_counts then begin
      (* Realistic multinomial shot noise instead of deterministic
         largest-remainder rounding. *)
      let table = Hashtbl.create 16 in
      let outcomes = Array.of_list distribution in
      let cumulative =
        let acc = ref 0.0 in
        Array.map
          (fun (_, p) ->
            acc := !acc +. p;
            !acc)
          outcomes
      in
      let total = cumulative.(Array.length cumulative - 1) in
      for _ = 1 to trials do
        let r = Rng.float counts_rng *. total in
        let rec find i =
          if i >= Array.length cumulative - 1 || cumulative.(i) >= r then i
          else find (i + 1)
        in
        let bits, _ = outcomes.(find 0) in
        Hashtbl.replace table bits (1 + Option.value ~default:0 (Hashtbl.find_opt table bits))
      done;
      Hashtbl.fold (fun bits n acc -> (bits, n) :: acc) table []
      |> List.sort (fun (_, n1) (_, n2) -> compare n2 n1)
    end
    else Dist.to_counts distribution trials
  in
  {
    distribution;
    counts;
    success_rate = Ir.Spec.success_rate spec counts;
    dominant_correct = Ir.Spec.dominates spec counts;
    trials;
    trajectories;
  }

let ideal_distribution (circuit : Ir.Circuit.t) ~measured =
  let state = Statevector.run circuit in
  let k = circuit.Ir.Circuit.n_qubits in
  Dist.to_strings (Dist.project (Statevector.probabilities state) k measured)
