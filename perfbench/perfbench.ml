(* Layered end-to-end benchmark of the TriQ toolflow.

   One client drives the public library API in a closed loop: each
   program goes from source text through the front end, the compiler and
   the emitter and, on [study], through the noisy simulator to a success
   rate. Each layer is timed from outside, around the calls into its
   public functions; nothing inside the library is instrumented for it.

   The client, the simulator's pool included, runs on one domain, and
   every time is read from the process CPU clock, so that a program's
   time is its latency on a core of its own. On a shared host the wall
   clock also counts the time other processes hold the core, and that
   moved the figures by 20-45% from run to run. The CPU clock still
   runs on while the host slows the core, so times are reported in
   reference seconds, against a fixed computation timed after every
   program (see [Speed]).

   Usage (from the repository root, after [dune build]):
     perfbench.exe --workload study|fresh-compile|supremacy --seed N
                   --seconds S --trace 0|1
     perfbench.exe --selftest

   A run clears both process caches and sets up five times (input
   generation and warm-up; [setup_s] is the median). It then runs whole
   sweeps over the seeded inputs until [S] CPU seconds of program time
   have passed; throughput and latency are taken over every program run.
   The first sweep's executables are checked outside the timed region,
   and every later sweep must emit the same ones. The last
   line of standard output is the JSON result; the line before it holds
   the exact work counts of the first sweep, which repeat bit-for-bit for
   a seed.

   With [--trace 1] the run first times one sweep untraced, then repeats
   the sweeps traced, compiler pass by pass, and reports per-layer metrics
   instead: busy time per program, allocation, work counts and the
   tracing overhead. [--selftest] checks that the exact counts repeat
   across runs, pool sizes and the traced path. *)

module W = Workload

let now = Speed.now
let since = Speed.since

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Named sums of floats. *)
module Tally = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let get (t : t) k = Option.value ~default:0.0 (Hashtbl.find_opt t k)
  let add (t : t) k v = Hashtbl.replace t k (get t k +. v)
  let incr t k = add t k 1.0
end

(* Where a traced program's layer measurements go: times and allocation
   to the whole window, work counts only in the first sweep. *)
type trace = { window : Tally.t; exact : Tally.t option }

let count tr key v = Option.iter (fun t -> Tally.add t key v) tr.exact

(* [layer tr name f] is one call into a layer. Traced, it adds the
   call's busy seconds and the words it allocated on this domain, which
   native code counts only approximately. *)
let layer tr name f =
  match tr with
  | None -> f ()
  | Some tr ->
    let a0 = allocated_words () in
    let t0 = now () in
    let r = f () in
    Tally.add tr.window (name ^ ".busy_s") (since t0);
    Tally.add tr.window (name ^ ".alloc_words") (allocated_words () -. a0);
    r

type result = {
  circuit : Ir.Circuit.t;  (** the front end's output *)
  exe : Triq.Compiled.t;
  layout : Layout.Report.t option;
  text : string;  (** the emitted executable *)
  sim : Sim.Runner.outcome option;
}

let frontend = function
  | W.Scaffold text -> (Scaffold.Lower.compile_string text).Scaffold.Lower.circuit
  | W.Qasm text -> (Qasm.Frontend.parse text).Qasm.Frontend.circuit

let config_of (p : W.program) = Triq.Pass.Config.make ~day:p.W.day ()

(* Untraced, the compiler is the library's entry point. Traced, the same
   schedule runs pass by pass; [check] asserts both give the same
   executable. *)
let compile tr (p : W.program) circuit =
  let config = config_of p in
  match tr with
  | None ->
    let r = Triq.Pipeline.compile_level ~config p.W.machine circuit ~level:p.W.level in
    (Triq.Pipeline.to_compiled r, r.Triq.Pipeline.layout)
  | Some trace ->
    let passes = (Triq.Pass.Schedule.of_level ~config p.W.level).Triq.Pass.Schedule.passes in
    let a0 = allocated_words () in
    let t0 = now () in
    let state = Triq.Pass.init ~config p.W.machine circuit in
    let state, outputs =
      List.fold_left
        (fun (s, outputs) (pass : Triq.Pass.t) ->
          let name = "pass." ^ pass.Triq.Pass.name in
          let s = layer tr name (fun () -> fst (Triq.Pass.run_pass s pass)) in
          (s, (name, s.Triq.Pass.circuit) :: outputs))
        (state, []) passes
    in
    let exe =
      Triq.Compiled.make ~machine:p.W.machine
        ~compiler:(Triq.Pipeline.level_name p.W.level)
        ~day:p.W.day ~hardware:state.Triq.Pass.circuit
        ~initial_placement:state.Triq.Pass.initial_placement
        ~final_placement:state.Triq.Pass.final_placement
        ~readout_map:state.Triq.Pass.readout_map ~swap_count:state.Triq.Pass.swap_count
        ~flipped_cnots:state.Triq.Pass.flipped_cnots ~compile_time_s:(since t0) ()
    in
    Tally.add trace.window "compile.busy_s" (since t0);
    Tally.add trace.window "compile.alloc_words" (allocated_words () -. a0);
    List.iter
      (fun (name, c) -> count trace (name ^ ".gates_out") (float (Ir.Circuit.gate_count c)))
      outputs;
    (exe, state.Triq.Pass.layout)

let simulate pool tr exe spec =
  let config = Sim.Runner.Config.make ~pool () in
  match tr with
  | None -> Sim.Runner.simulate ~config exe spec
  | Some trace ->
    let o = layer tr "sim" (fun () -> Sim.Runner.simulate ~config exe spec) in
    Tally.add trace.window "sim.trajectories" (float o.Sim.Runner.trajectories);
    o

(* The timed unit: source text to the last layer. The front end is
   Scaffold on [study] and OpenQASM on the other workloads. *)
let run_program pool tr (p : W.program) =
  let circuit = layer tr "frontend" (fun () -> frontend p.W.source) in
  let exe, layout = compile tr p circuit in
  let text = layer tr "emit" (fun () -> Backend.Emit.executable exe) in
  let sim =
    match p.W.reference with
    | W.Spec bench -> Some (simulate pool tr exe bench.Bench_kit.Programs.spec)
    | W.Program _ | W.Static -> None
  in
  { circuit; exe; layout; text; sim }

let same_executable (a : Triq.Compiled.t) (b : Triq.Compiled.t) =
  Ir.Circuit.equal a.Triq.Compiled.hardware b.Triq.Compiled.hardware
  && a.Triq.Compiled.initial_placement = b.Triq.Compiled.initial_placement
  && a.Triq.Compiled.final_placement = b.Triq.Compiled.final_placement
  && a.Triq.Compiled.readout_map = b.Triq.Compiled.readout_map
  && a.Triq.Compiled.swap_count = b.Triq.Compiled.swap_count
  && a.Triq.Compiled.flipped_cnots = b.Triq.Compiled.flipped_cnots
  && a.Triq.Compiled.two_q_count = b.Triq.Compiled.two_q_count
  && a.Triq.Compiled.pulse_count = b.Triq.Compiled.pulse_count
  && Float.equal a.Triq.Compiled.esp b.Triq.Compiled.esp

let gate_counts c = Ir.Circuit.(gate_count c, two_q_count c, measure_count c)

(* The output check, run outside the timed region. *)
let check ~traced (p : W.program) r =
  let verdict =
    match p.W.reference with
    | W.Spec bench ->
      let v =
        Sim.Verify.check_spec bench.Bench_kit.Programs.spec
          ~program:bench.Bench_kit.Programs.circuit r.exe
      in
      if v.Sim.Verify.equivalent then Ok ()
      else Error (Printf.sprintf "differs from the IR reference (TV %g)" v.Sim.Verify.total_variation)
    | W.Program c ->
      let v = Sim.Verify.check ~program:c ~measured:(Ir.Circuit.measured_qubits c) r.exe in
      if v.Sim.Verify.equivalent then Ok ()
      else Error (Printf.sprintf "differs from the generated program (TV %g)" v.Sim.Verify.total_variation)
    | W.Static -> (
      let e = r.exe in
      match
        Analysis.Check.check_executable
          {
            Analysis.Check.machine = e.Triq.Compiled.machine;
            hardware = e.Triq.Compiled.hardware;
            initial_placement = e.Triq.Compiled.initial_placement;
            final_placement = e.Triq.Compiled.final_placement;
            readout_map = e.Triq.Compiled.readout_map;
            measured = Some (Ir.Circuit.measured_qubits r.circuit);
            two_q_count = e.Triq.Compiled.two_q_count;
            pulse_count = e.Triq.Compiled.pulse_count;
            esp = e.Triq.Compiled.esp;
          }
      with
      | d :: _ -> Error ("static check: " ^ Analysis.Diag.render d)
      | [] ->
        let back = (Qasm.Frontend.parse r.text).Qasm.Frontend.circuit in
        if gate_counts back = gate_counts e.Triq.Compiled.hardware then Ok ()
        else Error "re-parsed executable has different gate counts")
  in
  match verdict with
  | Ok () when traced ->
    let untraced =
      Triq.Pipeline.compile_level ~config:(config_of p) p.W.machine r.circuit ~level:p.W.level
    in
    if same_executable (Triq.Pipeline.to_compiled untraced) r.exe then Ok ()
    else Error "pass-by-pass compile differs from Pipeline.compile_level"
  | v -> v

(* ---------- set-up ---------- *)

(* Clears both caches, generates the inputs and runs the warm-up, with
   a reference run after each step. Returns the workload and the set-up
   time in reference seconds, the reference runs left out. *)
let setup name ~seed pool =
  let t0 = now () in
  let refs = ref [] and overhead = ref 0.0 in
  let sample () =
    let t = now () in
    refs := Speed.reference () :: !refs;
    overhead := !overhead +. since t
  in
  Triq.Reliability.cache_clear ();
  Triq.Placement.cache_clear ();
  let w = W.make name ~seed in
  sample ();
  List.iter
    (fun p ->
      ignore (run_program pool None p);
      sample ())
    w.W.warmup;
  (w, (since t0 -. !overhead) *. Speed.factor (Array.of_list !refs))

(* ---------- the measured loop ---------- *)

type run = {
  attempted : int;  (** program executions, over all sweeps *)
  failed : int;
  times : float array;  (** each program run's time, in run order *)
  refs : float array;  (** the reference time taken after each run *)
  ok : bool array;  (** whether the run and its output check passed *)
  busy_s : float;  (** summed program time, failed programs included *)
  first_busy_s : float;  (** the same over the first sweep *)
  peak_heap_words : int;
      (** the largest major heap by the end of the first sweep; later
          sweeps repeat it, and how many there are depends on speed *)
  window : Tally.t;  (** traced measurements over all sweeps *)
  exact : Tally.t;  (** work counts over the first sweep *)
  digest : string;  (** chained MD5 of the first sweep's executables *)
}

let record exact (p : W.program) r =
  let e = r.exe in
  let add = Tally.add exact in
  Tally.incr exact "programs";
  add "two_q" (float e.Triq.Compiled.two_q_count);
  add "esp_loss" (-.log e.Triq.Compiled.esp);
  add "routing.swaps" (float e.Triq.Compiled.swap_count);
  add "orientation.flipped_cnots" (float e.Triq.Compiled.flipped_cnots);
  add "frontend.bytes_in" (float (String.length (W.source_text p.W.source)));
  add "frontend.gates_out" (float (Ir.Circuit.gate_count r.circuit));
  add "emit.bytes_out" (float (String.length r.text));
  Option.iter
    (fun (l : Layout.Report.t) ->
      add "layout.search_nodes" (float l.Layout.Report.work.Layout.Report.search_nodes);
      add "layout.sat_decisions" (float l.Layout.Report.work.Layout.Report.sat_decisions))
    r.layout;
  Option.iter
    (fun (o : Sim.Runner.outcome) ->
      Tally.incr exact "sim.programs";
      add "sim.trajectories" (float o.Sim.Runner.trajectories);
      add "sim.log_success" (log o.Sim.Runner.success_rate))
    r.sim

let cache_counts () =
  let l = Triq.Placement.cache_stats () in
  let rh, rm = Triq.Reliability.cache_stats () in
  [
    ("layout.cache_hits", l.Layout.Cache.hits);
    ("layout.cache_misses", l.Layout.Cache.misses);
    ("layout.cache_evictions", l.Layout.Cache.evictions);
    ("reliability.cache_hits", rh);
    ("reliability.cache_misses", rm);
  ]

let report_failure label msg = Printf.eprintf "perfbench: FAILED %s: %s\n%!" label msg

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

(* Runs whole sweeps over the workload's inputs, at least [min_sweeps],
   until [seconds] of program time have passed. The first sweep is
   checked against the references and gives the exact counts; a later
   sweep must emit the same executables. *)
let measure ?(min_sweeps = 1) pool (w : W.t) ~traced ~seconds =
  let window = Tally.create () and exact = Tally.create () in
  let n = Array.length w.W.inputs in
  let first_md5 = Array.make n None in
  let times = ref [] and refs = ref [] and oks = ref [] in
  let digest = ref "" and sweeps = ref 0 in
  let attempted = ref 0 and failed = ref 0 in
  let busy = ref 0.0 and first_busy = ref 0.0 and peak = ref 0 in
  while !sweeps < min_sweeps || !busy < seconds do
    let first = !sweeps = 0 in
    if w.W.cold_layouts then Triq.Placement.cache_clear ();
    Array.iteri
      (fun i (p : W.program) ->
        incr attempted;
        let tr = if traced then Some { window; exact = (if first then Some exact else None) } else None in
        let caches0 = cache_counts () in
        let t0 = now () in
        let outcome = try Ok (run_program pool tr p) with e -> Error (Printexc.to_string e) in
        let latency = since t0 in
        let caches1 = cache_counts () in
        busy := !busy +. latency;
        if first then first_busy := !first_busy +. latency;
        let verdict =
          match outcome with
          | Error m -> Error m
          | Ok r when first -> (
            match try check ~traced p r with e -> Error (Printexc.to_string e) with
            | Error m -> Error m
            | Ok () ->
              record exact p r;
              List.iter2 (fun (k, a) (_, b) -> Tally.add exact k (float (b - a))) caches0 caches1;
              let md5 = Digest.string r.text in
              digest := Digest.string (!digest ^ md5);
              first_md5.(i) <- Some md5;
              Ok ())
          | Ok r ->
            if first_md5.(i) = Some (Digest.string r.text) then Ok ()
            else Error "executable differs from the first sweep's, or an earlier sweep failed"
        in
        (match verdict with
        | Ok () -> ()
        | Error m ->
          incr failed;
          first_md5.(i) <- None;
          if !failed <= 5 then report_failure p.W.label m);
        times := latency :: !times;
        refs := Speed.reference () :: !refs;
        oks := Result.is_ok verdict :: !oks)
      w.W.inputs;
    if first then peak := (Gc.quick_stat ()).Gc.top_heap_words;
    incr sweeps
  done;
  {
    attempted = !attempted;
    failed = !failed;
    times = Array.of_list (List.rev !times);
    refs = Array.of_list (List.rev !refs);
    ok = Array.of_list (List.rev !oks);
    busy_s = !busy;
    first_busy_s = !first_busy;
    peak_heap_words = !peak;
    window;
    exact;
    digest = Digest.to_hex !digest;
  }

(* ---------- metrics ---------- *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let completed r = r.attempted - r.failed

(* Throughput and latency are taken over the program runs that passed,
   in reference seconds. *)
let end_to_end ~setup_s r =
  let ex = Tally.get r.exact in
  let norm = Speed.normalize r.times r.refs in
  let passed = Array.of_list (List.filteri (fun j _ -> r.ok.(j)) (Array.to_list norm)) in
  Array.sort compare passed;
  let pct p = if passed = [||] then nan else 1e3 *. percentile passed p in
  [
    ("setup_s", setup_s, "s");
    ( "throughput_pps",
      ratio (float (Array.length passed)) (Array.fold_left ( +. ) 0.0 passed),
      "1/s" );
    ("latency_p50_ms", pct 0.5, "ms");
    ("latency_p90_ms", pct 0.9, "ms");
    ("two_q_per_prog", ratio (ex "two_q") (ex "programs"), "count");
    ("esp_loss_nats", ratio (ex "esp_loss") (ex "programs"), "nats");
    ("peak_heap_mb", float (r.peak_heap_words * (Sys.word_size / 8)) /. 1048576.0, "MB");
  ]

let pass_names =
  [
    "flatten"; "reliability"; "mapping"; "routing"; "swap-expansion"; "orientation";
    "translation"; "oneq"; "readout";
  ]

(* [untraced] is one sweep timed without tracing; [r] the traced run,
   whose first sweep runs the same programs. Times are in reference
   seconds, at the median reference time of their run. The simulator's
   time is given as a share and a rate, which are 0 on the workloads
   that do not simulate. *)
let per_layer ~untraced r =
  let win = Tally.get r.window and ex = Tally.get r.exact in
  let factor run = Speed.factor run.refs in
  let per_prog_ms s = 1e3 *. factor r *. ratio s (float (completed r)) in
  let busy name = (name ^ ".busy_ms", per_prog_ms (win (name ^ ".busy_s")), "ms") in
  let passes = List.map (fun n -> "pass." ^ n) pass_names in
  let sum names = List.fold_left (fun acc n -> acc +. win (n ^ ".busy_s")) 0.0 names in
  let hit_ratio cache =
    let h = ex (cache ^ ".cache_hits") in
    ratio h (h +. ex (cache ^ ".cache_misses"))
  in
  let first_sweep_ms run =
    1e3 *. factor run *. ratio run.first_busy_s (Tally.get run.exact "programs")
  in
  List.map busy ([ "frontend"; "compile"; "emit" ] @ passes)
  @ [
      ("compile.self_ms", per_prog_ms (win "compile.busy_s" -. sum passes), "ms");
      ( "program.self_ms",
        per_prog_ms (r.busy_s -. sum [ "frontend"; "compile"; "emit"; "sim" ]),
        "ms" );
      ("trace.overhead_ms", first_sweep_ms r -. first_sweep_ms untraced, "ms");
      ("sim.busy_share", ratio (win "sim.busy_s") r.busy_s, "ratio");
      ( "sim.trajectories_per_s",
        ratio (win "sim.trajectories") (factor r *. win "sim.busy_s"),
        "1/s" );
      ("sim.trajectories", ex "sim.trajectories", "count");
      ( "sim.success_rate_geomean",
        (if ex "sim.programs" = 0.0 then 0.0 else exp (ex "sim.log_success" /. ex "sim.programs")),
        "ratio" );
    ]
  @ List.map
      (fun name -> (name ^ ".alloc_kwords", 1e-3 *. ratio (win (name ^ ".alloc_words")) (float (completed r)), "kwords"))
      [ "frontend"; "compile"; "emit" ]
  @ [
      ("frontend.bytes_in", ex "frontend.bytes_in", "B");
      ("frontend.gates_out", ex "frontend.gates_out", "count");
      ("emit.bytes_out", ex "emit.bytes_out", "B");
    ]
  @ List.map (fun n -> (n ^ ".gates_out", ex (n ^ ".gates_out"), "count")) passes
  @ [
      ("routing.swaps", ex "routing.swaps", "count");
      ("orientation.flipped_cnots", ex "orientation.flipped_cnots", "count");
      ("layout.search_nodes", ex "layout.search_nodes", "count");
      ("layout.sat_decisions", ex "layout.sat_decisions", "count");
      ("layout.cache_hit_ratio", hit_ratio "layout", "ratio");
      ("layout.cache_evictions", ex "layout.cache_evictions", "count");
      ("reliability.cache_hit_ratio", hit_ratio "reliability", "ratio");
    ]

(* Every exact count of a run, rendered so that equal strings mean
   bit-identical values. *)
let exact_record r =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) r.exact [] in
  ("digest", r.digest)
  :: List.map (fun k -> (k, Printf.sprintf "%h" (Tally.get r.exact k))) (List.sort compare keys)

(* ---------- output ---------- *)

let json_metrics metrics =
  Obs.Json.Obj
    (List.map
       (fun (name, value, unit) ->
         (name, Obs.Json.Obj [ ("value", Obs.Json.Float value); ("unit", Obs.Json.Str unit) ]))
       metrics)

let print_result r metrics =
  let exact = List.map (fun (k, v) -> (k, Obs.Json.Str v)) (exact_record r) in
  print_endline (Obs.Json.to_string (Obs.Json.Obj [ ("exact", Obs.Json.Obj exact) ]));
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (r.failed = 0));
            ("attempted", Obs.Json.Int r.attempted);
            ("failed", Obs.Json.Int r.failed);
            ("metrics", json_metrics metrics);
          ]))

(* ---------- modes ---------- *)

let setup_reps = 5

let bench ~workload ~seed ~seconds ~traced =
  Parallel.Pool.set_default_jobs 1;
  Parallel.Pool.with_pool ~jobs:1 (fun pool ->
      if traced then begin
        let w, _ = setup workload ~seed pool in
        let untraced = measure pool w ~traced:false ~seconds:0.0 in
        let w, _ = setup workload ~seed pool in
        let r = measure pool w ~traced:true ~seconds in
        print_result r (per_layer ~untraced r)
      end
      else begin
        let setups = List.init setup_reps (fun _ -> setup workload ~seed pool) in
        let w = fst (List.nth setups (setup_reps - 1)) in
        let setup_s = Speed.median_of (Array.of_list (List.map snd setups)) in
        let r = measure pool w ~traced:false ~seconds in
        print_result r (end_to_end ~setup_s r)
      end)

(* Each workload for two sweeps: twice untraced on two domains, once on
   one domain, once traced. Every exact count must agree, and no program
   may fail. *)
let selftest () =
  let seed = 7 in
  let ok = ref true in
  List.iter
    (fun workload ->
      let run ~jobs ~traced =
        Parallel.Pool.with_pool ~jobs (fun pool ->
            let w, _ = setup workload ~seed pool in
            measure ~min_sweeps:2 pool w ~traced ~seconds:0.0)
      in
      let a = run ~jobs:2 ~traced:false in
      let b = run ~jobs:2 ~traced:false in
      let c = run ~jobs:1 ~traced:false in
      let d = run ~jobs:2 ~traced:true in
      let ea = exact_record a in
      let traced_common = List.filter (fun (k, _) -> List.mem_assoc k ea) (exact_record d) in
      let checks =
        [
          ("repeat", exact_record b = ea);
          ("pool sizes 1 and 2", exact_record c = ea);
          ("traced path", traced_common = ea);
          ("no failures", List.for_all (fun r -> r.failed = 0) [ a; b; c; d ]);
        ]
      in
      List.iter
        (fun (what, pass) ->
          if not pass then ok := false;
          Printf.printf "%-14s %-20s %s (%d programs, digest %s)\n%!" workload what
            (if pass then "ok" else "FAIL")
            a.attempted a.digest)
        checks)
    W.names;
  if not !ok then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let selftest_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" W.names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S program time to measure");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
      ("--selftest", Arg.Set selftest_mode, " check that exact counts repeat");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 | --selftest";
  if !selftest_mode then selftest ()
  else if not (List.mem !workload W.names) then begin
    Printf.eprintf "perfbench: --workload must be one of %s\n" (String.concat ", " W.names);
    exit 2
  end
  else if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end
  else bench ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
