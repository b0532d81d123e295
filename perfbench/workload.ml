(* The benchmark's three workloads, generated from the workload seed.

   Every program reaches the system as source text (Scaffold or
   OpenQASM). The reference its executable is checked against is built
   without the front ends or the compiler: the IR-level benchmark
   construction for [study], the generated circuit before it was printed
   for [fresh-compile], and a static audit plus a re-parse for
   [supremacy], whose 16-72 qubit circuits are too wide to simulate. *)

module Rng = Mathkit.Rng
module Gen = Proptest.Gen
module Machines = Device.Machines

type source = Scaffold of string | Qasm of string

type reference =
  | Spec of Bench_kit.Programs.t  (** checked against, and simulated *)
  | Program of Ir.Circuit.t  (** noiseless comparison, not simulated *)
  | Static  (** executable audit and gate counts of the re-parsed output *)

type program = {
  label : string;
  source : source;
  machine : Device.Machine.t;
  level : Triq.Pipeline.level;
  day : int;
  reference : reference;
}

type t = {
  inputs : program array;  (** one sweep, in order; a run repeats it *)
  cold_layouts : bool;
      (** clear the layout cache before every sweep, so that a repeated
          program solves its layout again *)
  warmup : program list;  (** run during set-up, untimed *)
}

let names = [ "study"; "fresh-compile"; "supremacy" ]

let source_text = function Scaffold s | Qasm s -> s

(* ---------- study: the paper's evaluation grid ---------- *)

(* The 12 Scaffold benchmarks x 7 machines x 4 levels, skipping the
   cells whose program does not fit the machine. Inputs do not depend on
   the seed; the seed only orders the cells within each pass over the
   grid. Warm-up walks the grid in its canonical order, so every cached
   layout, and therefore every executable, is the same for all seeds.
   One sweep is the whole grid. *)
let study ~seed =
  let cells =
    List.concat_map
      (fun (name, text) ->
        let p =
          match Bench_kit.Programs.find name with
          | Some p -> p
          | None -> failwith ("study: no IR reference for " ^ name)
        in
        List.concat_map
          (fun machine ->
            if not (Device.Machine.fits machine p.Bench_kit.Programs.circuit) then []
            else
              List.map
                (fun level ->
                  {
                    label =
                      Printf.sprintf "%s@%s/%s" name machine.Device.Machine.name
                        (Triq.Pipeline.level_name level);
                    source = Scaffold text;
                    machine;
                    level;
                    day = 0;
                    reference = Spec p;
                  })
                Triq.Pipeline.all_levels)
          Machines.all)
      Bench_kit.Scaffold_sources.all
  in
  let order = Array.of_list cells in
  Rng.shuffle (Rng.create seed) order;
  { inputs = order; cold_layouts = false; warmup = cells }

(* ---------- fresh-compile: distinct random programs ---------- *)

let fresh_machines = [| Machines.ibmq14; Machines.ibmq16; Machines.aspen3 |]

(* Above 7 qubits a few searches of up to 0.6 s each, most stopped by the
   node budget, dominate a run, and throughput and p90 then differ by
   13-23% between seeds. *)
let max_qubits = 7
let max_gates = 120
let days = 7

(* The distribution of [Gen.circuit ~max_qubits ~max_gates] (uniform
   qubit count, uniform gate count, [Gen.gate] gates, a random non-empty
   trailing measurement layer), flattened and printed as OpenQASM. *)
let random_program ~label ~machine ~n ~count rng =
  let gates = List.init count (fun _ -> Gen.gate ~n_qubits:n rng) in
  let k = Gen.int_range 1 n rng in
  let measured = List.sort compare (Gen.distinct_qubits ~n k rng) in
  let circuit =
    Ir.Decompose.flatten
      (Ir.Circuit.create n (gates @ List.map (fun q -> Ir.Gate.Measure q) measured))
  in
  {
    label;
    source = Qasm (Backend.Qasm_emit.emit_program ~name:label circuit);
    machine;
    level = Triq.Pipeline.OneQOptCN;
    day = Rng.int rng days;
    reference = Program circuit;
  }

(* Mapping cost is heavy-tailed in the qubit count and grows with the
   gate count, and the median program sits where latency climbs
   steeply, so the inputs are stratified on both. A sweep is [blocks]
   blocks; each block holds every (qubit count, machine) pair once, in
   seeded order, and over the sweep each pair draws its gate counts from
   [blocks] equal slices of [0, max_gates], one slice per block in
   seeded order. Runs of different seeds then differ in program content,
   not in their mix of sizes. *)
let fresh_block = max_qubits * Array.length fresh_machines

let fresh_inputs ~seed ~blocks =
  let rng = Rng.create seed in
  let slices =
    Array.init fresh_block (fun _ ->
        let a = Array.init blocks Fun.id in
        Rng.shuffle rng a;
        a)
  in
  Array.concat
    (List.init blocks (fun b ->
         let cells = Array.init fresh_block Fun.id in
         Rng.shuffle rng cells;
         Array.mapi
           (fun j cell ->
             let n = 1 + (cell mod max_qubits) in
             let machine = fresh_machines.(cell / max_qubits) in
             let k = slices.(cell).(b) in
             let lo = k * (max_gates + 1) / blocks and hi = (k + 1) * (max_gates + 1) / blocks in
             let count = lo + Rng.int rng (max 1 (hi - lo)) in
             let label = Printf.sprintf "fresh%d-%dq-%dg" ((b * fresh_block) + j) n count in
             random_program ~label ~machine ~n ~count (Rng.split rng))
           cells))

(* Warm-up is one block from a fixed seed, plus a small program for every
   (machine, day) calibration the inputs can draw, so that reliability
   matrices are built during set-up. Layout solves stay cold: the
   layout cache is cleared before every sweep. *)
let fresh_warmup () =
  let rng = Rng.create 0x5eed in
  let calibrations =
    List.concat_map
      (fun machine ->
        List.init days (fun day ->
            {
              (random_program ~label:"warmup" ~machine ~n:4 ~count:24 (Rng.split rng)) with
              day;
            }))
      (Array.to_list fresh_machines)
  in
  calibrations @ Array.to_list (fresh_inputs ~seed:0x5eed ~blocks:1)

(* The layout cache is cleared before every sweep, so every sweep solves
   the same layouts cold. *)
let fresh_blocks = 40

let fresh ~seed =
  {
    inputs = fresh_inputs ~seed ~blocks:fresh_blocks;
    cold_layouts = true;
    warmup = fresh_warmup ();
  }

(* ---------- supremacy: large compile-only circuits ---------- *)

let depth = 128
let grids = [ (4, 4); (6, 6); (6, 12) ]

let supremacy_program ~rows ~cols ~machine ~seed =
  let label = Printf.sprintf "supremacy%dx%d-d%d-s%d" rows cols depth seed in
  let circuit = Bench_kit.Supremacy.circuit ~seed ~rows ~cols ~depth in
  {
    label;
    source = Qasm (Backend.Qasm_emit.emit_program ~name:label circuit);
    machine;
    level = Triq.Pipeline.OneQOptCN;
    day = 0;
    reference = Static;
  }

(* A sweep is [per_grid] programs per grid, the grids in turn, each
   with its own circuit seed. The CZ pattern repeats per grid, so after
   the warm-up's three cold solves every layout is a cache hit on a large
   interaction graph. *)
let per_grid = 10

let supremacy ~seed =
  let machines = List.map (fun (r, c) -> (r, c, Machines.bristlecone r c)) grids in
  let rng = Rng.create seed in
  {
    inputs =
      Array.of_list
        (List.concat
           (List.init per_grid (fun _ ->
                List.map
                  (fun (rows, cols, machine) ->
                    supremacy_program ~rows ~cols ~machine ~seed:(Rng.int rng 0x3fffffff))
                  machines)));
    cold_layouts = false;
    warmup =
      List.map
        (fun (rows, cols, machine) -> supremacy_program ~rows ~cols ~machine ~seed:0)
        machines;
  }

let make name ~seed =
  match name with
  | "study" -> study ~seed
  | "fresh-compile" -> fresh ~seed
  | "supremacy" -> supremacy ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)
