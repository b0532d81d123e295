(* Device-layer tests: topology graphs, gate-set visibility and pulse
   accounting, calibration drift model, and the seven study machines. *)

module Topology = Device.Topology
module Gateset = Device.Gateset
module Calibration = Device.Calibration
module Machine = Device.Machine
module Machines = Device.Machines
module G = Ir.Gate
module Circuit = Ir.Circuit

(* ---------- Topology ---------- *)

let test_topology_line () =
  let t = Topology.line 4 in
  Alcotest.(check int) "edges" 3 (Topology.edge_count t);
  Alcotest.(check bool) "coupled" true (Topology.coupled t 1 2);
  Alcotest.(check bool) "not coupled" false (Topology.coupled t 0 3);
  Alcotest.(check int) "distance" 3 (Topology.hop_distance t 0 3);
  Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] (Topology.shortest_path t 0 3)

let test_topology_ring () =
  let t = Topology.ring 8 in
  Alcotest.(check int) "edges" 8 (Topology.edge_count t);
  Alcotest.(check int) "wraps" 1 (Topology.hop_distance t 0 7);
  Alcotest.(check int) "across" 4 (Topology.hop_distance t 0 4)

let test_topology_grid () =
  let t = Topology.grid 2 4 in
  Alcotest.(check int) "qubits" 8 (Topology.n_qubits t);
  Alcotest.(check int) "edges" 10 (Topology.edge_count t);
  Alcotest.(check bool) "vertical" true (Topology.coupled t 0 4);
  Alcotest.(check bool) "no diagonal" false (Topology.coupled t 0 5)

let test_topology_fully_connected () =
  let t = Topology.fully_connected 5 in
  Alcotest.(check int) "edges" 10 (Topology.edge_count t);
  Alcotest.(check bool) "flag" true (Topology.is_fully_connected t);
  Alcotest.(check bool) "line is not" false (Topology.is_fully_connected (Topology.line 3))

let test_topology_directed () =
  let t = Topology.create 2 [ (1, 0) ] ~directed:true in
  Alcotest.(check bool) "directed edge" true (Topology.has_directed_edge t 1 0);
  Alcotest.(check bool) "reverse missing" false (Topology.has_directed_edge t 0 1);
  Alcotest.(check bool) "coupled both ways" true (Topology.coupled t 0 1)

let test_topology_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "self loop" true
    (raises (fun () -> ignore (Topology.create 2 [ (0, 0) ] ~directed:false)));
  Alcotest.(check bool) "duplicate" true
    (raises (fun () -> ignore (Topology.create 2 [ (0, 1); (1, 0) ] ~directed:false)));
  Alcotest.(check bool) "out of range" true
    (raises (fun () -> ignore (Topology.create 2 [ (0, 5) ] ~directed:false)))

let test_topology_neighbors_sorted () =
  let t = Topology.create 4 [ (2, 0); (2, 3); (2, 1) ] ~directed:false in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 3 ] (Topology.neighbors t 2);
  Alcotest.(check int) "degree" 3 (Topology.degree t 2)

let test_topology_disconnected () =
  let t = Topology.create 4 [ (0, 1); (2, 3) ] ~directed:false in
  Alcotest.(check bool) "not connected" false (Topology.is_connected t);
  Alcotest.(check bool) "distance raises" true
    (try ignore (Topology.hop_distance t 0 3); false with Not_found -> true)

let test_topology_heavy_hex () =
  let t = Topology.heavy_hex 3 in
  Alcotest.(check int) "qubits" 14 (Topology.n_qubits t);
  Alcotest.(check bool) "connected" true (Topology.is_connected t);
  for q = 0 to Topology.n_qubits t - 1 do
    if Topology.degree t q > 3 then Alcotest.failf "degree %d at %d" (Topology.degree t q) q
  done;
  Alcotest.(check bool) "validation" true
    (try ignore (Topology.heavy_hex 0); false with Invalid_argument _ -> true)

let test_topology_metrics () =
  let line = Topology.line 5 in
  Alcotest.(check int) "line diameter" 4 (Topology.diameter line);
  Alcotest.(check (float 1e-9)) "pair average" 2.0 (Topology.average_distance line);
  Alcotest.(check int) "full graph diameter" 1
    (Topology.diameter (Topology.fully_connected 4));
  (* Richer connectivity means smaller average distance: the Figure 12
     topology story in one number. *)
  Alcotest.(check bool) "full < line" true
    (Topology.average_distance (Topology.fully_connected 5)
    < Topology.average_distance (Topology.line 5))

(* ---------- Gateset ---------- *)

let test_gateset_visibility () =
  Alcotest.(check bool) "ibm u3" true
    (Gateset.one_q_visible Gateset.Ibm_visible (G.U3 (0.1, 0.2, 0.3)));
  Alcotest.(check bool) "ibm h invisible" false
    (Gateset.one_q_visible Gateset.Ibm_visible G.H);
  Alcotest.(check bool) "rigetti rx half pi" true
    (Gateset.one_q_visible Gateset.Rigetti_visible (G.Rx (Float.pi /. 2.0)));
  Alcotest.(check bool) "rigetti rx other" false
    (Gateset.one_q_visible Gateset.Rigetti_visible (G.Rx 0.3));
  Alcotest.(check bool) "umd rxy" true
    (Gateset.one_q_visible Gateset.Umd_visible (G.Rxy (0.3, 0.4)));
  Alcotest.(check bool) "cnot ibm" true (Gateset.two_q_visible Gateset.Ibm_visible G.Cnot);
  Alcotest.(check bool) "cz not ibm" false (Gateset.two_q_visible Gateset.Ibm_visible G.Cz);
  Alcotest.(check bool) "xx quarter pi" true
    (Gateset.two_q_visible Gateset.Umd_visible (G.Xx (Float.pi /. 4.0)));
  Alcotest.(check bool) "xx other angle" false
    (Gateset.two_q_visible Gateset.Umd_visible (G.Xx 0.3))

let test_gateset_error_free () =
  Alcotest.(check bool) "ibm u1" true (Gateset.is_error_free Gateset.Ibm_visible (G.U1 0.5));
  Alcotest.(check bool) "ibm u2" false
    (Gateset.is_error_free Gateset.Ibm_visible (G.U2 (0.5, 0.2)));
  Alcotest.(check bool) "rigetti rz" true
    (Gateset.is_error_free Gateset.Rigetti_visible (G.Rz 0.5));
  Alcotest.(check bool) "umd rz" true (Gateset.is_error_free Gateset.Umd_visible (G.Rz 0.5))

let test_gateset_pulse_counts () =
  Alcotest.(check int) "u1" 0 (Gateset.native_pulse_count Gateset.Ibm_visible (G.U1 0.5));
  Alcotest.(check int) "u2" 1
    (Gateset.native_pulse_count Gateset.Ibm_visible (G.U2 (0.5, 0.1)));
  Alcotest.(check int) "u3" 2
    (Gateset.native_pulse_count Gateset.Ibm_visible (G.U3 (0.5, 0.1, 0.2)));
  Alcotest.(check int) "rigetti rx" 1
    (Gateset.native_pulse_count Gateset.Rigetti_visible (G.Rx (Float.pi /. 2.0)));
  Alcotest.(check int) "umd rxy" 1
    (Gateset.native_pulse_count Gateset.Umd_visible (G.Rxy (0.5, 0.1)));
  Alcotest.(check bool) "invisible raises" true
    (try ignore (Gateset.native_pulse_count Gateset.Ibm_visible G.H); false
     with Invalid_argument _ -> true)

let test_gateset_circuit_pulse_count () =
  let c =
    Circuit.create 2
      [ G.One (G.U1 0.1, 0); G.One (G.U3 (1.0, 0.0, 0.0), 1); G.Two (G.Cnot, 0, 1);
        G.Measure 0 ]
  in
  Alcotest.(check int) "total" 2 (Gateset.circuit_pulse_count Gateset.Ibm_visible c)

(* ---------- Calibration ---------- *)

let test_calibration_deterministic () =
  let topo = Topology.line 4 in
  let profile = Machines.ibmq14.Machine.profile in
  let a = Calibration.generate ~seed:1 ~day:3 topo profile in
  let b = Calibration.generate ~seed:1 ~day:3 topo profile in
  Alcotest.(check bool) "same snapshot" true
    (a.Calibration.one_q = b.Calibration.one_q
    && a.Calibration.two_q = b.Calibration.two_q)

let test_calibration_day_varies () =
  let topo = Topology.line 4 in
  let profile = Machines.ibmq14.Machine.profile in
  let a = Calibration.generate ~seed:1 ~day:0 topo profile in
  let b = Calibration.generate ~seed:1 ~day:1 topo profile in
  Alcotest.(check bool) "days differ" true
    (Calibration.two_q_err a 0 1 <> Calibration.two_q_err b 0 1)

let test_calibration_clamped () =
  let topo = Topology.line 4 in
  let profile = Machines.agave.Machine.profile in
  List.iter
    (fun day ->
      let cal = Calibration.generate ~seed:9 ~day topo profile in
      List.iter
        (fun (_, e) ->
          if e < 0.0 || e > 0.5 then Alcotest.failf "error out of range: %f" e)
        cal.Calibration.two_q)
    (List.init 50 (fun d -> d))

let test_calibration_mean_tracks_profile () =
  (* Averaged over many days/edges the drifted rates must stay within a
     factor ~1.5 of the profile average (log-normal bias tolerated). *)
  let topo = Topology.fully_connected 5 in
  let profile = Machines.umdti.Machine.profile in
  let all =
    List.concat_map
      (fun day ->
        let cal = Calibration.generate ~seed:4 ~day topo profile in
        List.map snd cal.Calibration.two_q)
      (List.init 100 (fun d -> d))
  in
  let mean = Mathkit.Stats.mean all in
  let ratio = mean /. profile.Calibration.avg_two_q_err in
  if ratio < 0.66 || ratio > 1.5 then Alcotest.failf "drift bias: %f" ratio

let test_calibration_superconducting_varies_more () =
  let spread profile =
    let topo = Topology.line 8 in
    let all =
      List.concat_map
        (fun day ->
          let cal = Calibration.generate ~seed:2 ~day topo profile in
          List.map snd cal.Calibration.two_q)
        (List.init 30 (fun d -> d))
    in
    Mathkit.Stats.maximum all /. Mathkit.Stats.minimum all
  in
  let sc = spread Machines.ibmq14.Machine.profile in
  let ion = spread Machines.umdti.Machine.profile in
  Alcotest.(check bool)
    (Printf.sprintf "sc %.1fx > ion %.1fx" sc ion)
    true (sc > ion);
  (* The paper reports up to 9x for superconducting 2Q errors. *)
  Alcotest.(check bool) (Printf.sprintf "sc spread %.1fx > 3x" sc) true (sc > 3.0)

let test_calibration_explicit_validation () =
  Alcotest.(check bool) "error > 1 rejected" true
    (try
       ignore
         (Calibration.explicit ~day:0 ~one_q:[| 1.5 |] ~two_q:[] ~readout:[| 0.0 |]);
       false
     with Invalid_argument _ -> true)

let test_calibration_missing_edge () =
  let cal =
    Calibration.explicit ~day:0 ~one_q:(Array.make 3 0.01)
      ~two_q:[ ((0, 1), 0.05) ]
      ~readout:(Array.make 3 0.01)
  in
  Alcotest.(check bool) "raises" true
    (try ignore (Calibration.two_q_err cal 1 2); false with Not_found -> true);
  (* Symmetric lookup. *)
  Alcotest.(check (float 1e-12)) "reversed pair" 0.05 (Calibration.two_q_err cal 1 0);
  Alcotest.(check bool) "out of range" true
    (try ignore (Calibration.two_q_err cal 0 7); false with Not_found -> true);
  (* Every machine: the lookup answers exactly the listed couplings. *)
  List.iter
    (fun m ->
      let cal = Machine.calibration m ~day:1 in
      let n = Machine.n_qubits m in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          let listed = List.assoc_opt (min a b, max a b) cal.Calibration.two_q in
          let found = try Some (Calibration.two_q_err cal a b) with Not_found -> None in
          if listed <> found then
            Alcotest.failf "%s: pair %d-%d disagrees with the coupling list"
              m.Machine.name a b
        done
      done)
    Machines.all

let test_calibration_negative_day () =
  Alcotest.check_raises "day -1"
    (Invalid_argument "Calibration.generate: day must be >= 0") (fun () ->
      ignore (Machine.calibration Machines.ibmq5 ~day:(-1)))

(* ---------- Machines ---------- *)

let test_machines_inventory () =
  Alcotest.(check int) "seven machines" 7 (List.length Machines.all);
  let expect name qubits couplings =
    match Machines.find name with
    | None -> Alcotest.failf "missing machine %s" name
    | Some m ->
      Alcotest.(check int) (name ^ " qubits") qubits (Machine.n_qubits m);
      Alcotest.(check int)
        (name ^ " couplings")
        couplings
        (Topology.edge_count m.Machine.topology)
  in
  (* Figure 1's qubit and 2Q-coupling counts. *)
  expect "IBMQ5" 5 6;
  expect "IBMQ14" 14 18;
  expect "IBMQ16" 16 22;
  expect "Agave" 4 3;
  expect "Aspen1" 16 18;
  expect "Aspen3" 16 18;
  expect "UMDTI" 5 10

let test_machines_connected () =
  List.iter
    (fun m ->
      if not (Topology.is_connected m.Machine.topology) then
        Alcotest.failf "%s disconnected" m.Machine.name)
    Machines.all

let test_machines_umdti_fully_connected () =
  Alcotest.(check bool) "fully connected" true
    (Topology.is_fully_connected Machines.umdti.Machine.topology)

let test_machines_vendors () =
  Alcotest.(check string) "ibm" "IBM" (Gateset.vendor_name (Machine.vendor Machines.ibmq5));
  Alcotest.(check string) "rigetti" "Rigetti"
    (Gateset.vendor_name (Machine.vendor Machines.aspen1));
  Alcotest.(check string) "umd" "UMD" (Gateset.vendor_name (Machine.vendor Machines.umdti))

let test_machines_find_case_insensitive () =
  Alcotest.(check bool) "lowercase" true (Machines.find "ibmq14" <> None);
  Alcotest.(check bool) "unknown" true (Machines.find "nonesuch" = None)

let test_machines_fits () =
  let c5 = Circuit.empty 5 and c6 = Circuit.empty 6 in
  Alcotest.(check bool) "5 fits" true (Machine.fits Machines.ibmq5 c5);
  Alcotest.(check bool) "6 does not" false (Machine.fits Machines.ibmq5 c6)

let test_machines_require_fits () =
  let c5 = Circuit.empty 5 and c8 = Circuit.empty 8 in
  Alcotest.(check (result unit string)) "5 fits" (Ok ())
    (Machine.require_fits Machines.ibmq5 c5);
  Alcotest.(check (result unit string)) "8 does not"
    (Error "program needs 8 qubits; IBMQ5 has 5")
    (Machine.require_fits Machines.ibmq5 c8)

let test_machines_duration () =
  let c =
    Circuit.create 2 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1); G.One (G.H, 1) ]
  in
  let ibm = Machine.duration_us Machines.ibmq5 c in
  let umd = Machine.duration_us Machines.umdti c in
  Alcotest.(check bool) "positive" true (ibm > 0.0);
  Alcotest.(check bool) "ion slower clock" true (umd > ibm)

let test_machines_extended () =
  Alcotest.(check int) "tokyo qubits" 20 (Machine.n_qubits Machines.ibmq20);
  Alcotest.(check int) "tokyo couplings" 43
    (Topology.edge_count Machines.ibmq20.Machine.topology);
  Alcotest.(check bool) "tokyo connected" true
    (Topology.is_connected Machines.ibmq20.Machine.topology);
  Alcotest.(check int) "agave8 ring" 8
    (Topology.edge_count Machines.agave_full.Machine.topology);
  (* find resolves extended machines, but they stay out of [all]. *)
  Alcotest.(check bool) "find ibmq20" true (Machines.find "ibmq20" <> None);
  Alcotest.(check int) "all stays 7" 7 (List.length Machines.all)

let test_machines_example_8q () =
  Alcotest.(check int) "10 edges" 10
    (Topology.edge_count Machines.example_8q.Machine.topology);
  (* Edge 2-6 has reliability 0.7 in Figure 6, i.e. error 0.3. *)
  Alcotest.(check (float 1e-12)) "edge error" 0.3
    (Calibration.two_q_err Machines.example_8q_calibration 2 6);
  Alcotest.(check int) "bristlecone 72" 72
    (Machine.n_qubits (Machines.bristlecone 6 12))

(* ---------- Json / Machine_io ---------- *)

module Json = Obs.Json
module Machine_io = Device.Machine_io

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("a", Json.Float 1.5);
        ("b", Json.List [ Json.Bool true; Json.Null; Json.Str "x\"y" ]);
        ("c", Json.Obj [ ("nested", Json.Int 3) ]);
      ]
  in
  let text = Json.to_string ~pretty:true doc in
  Alcotest.(check bool) "roundtrip" true (Json.parse text = doc);
  (* Compact form too. *)
  Alcotest.(check bool) "compact roundtrip" true (Json.parse (Json.to_string doc) = doc)

let test_json_parse_basics () =
  Alcotest.(check bool) "integer" true (Json.parse "42" = Json.Int 42);
  Alcotest.(check bool) "integral float" true (Json.parse "42.0" = Json.Float 42.0);
  Alcotest.(check bool) "negative float" true (Json.parse "-2.5e1" = Json.Float (-25.0));
  Alcotest.(check bool) "integer wider than int" true
    (Json.parse "9223372036854775808" = Json.Float 9223372036854775808.0);
  Alcotest.(check bool) "escapes" true (Json.parse {|"a\nb"|} = Json.Str "a\nb");
  Alcotest.(check bool) "short escapes" true
    (Json.parse {|"\b\f\/\r"|} = Json.Str "\b\012/\r");
  Alcotest.(check bool) "\\u escapes" true
    (Json.parse {|"\u0041\u00e9\u20AC\u0007"|} = Json.Str "A\xc3\xa9\xe2\x82\xac\007");
  Alcotest.(check bool) "surrogate pair" true
    (Json.parse {|"\ud83d\ude00"|} = Json.Str "\xf0\x9f\x98\x80");
  Alcotest.(check bool) "empty containers" true
    (Json.parse "[{}, []]" = Json.List [ Json.Obj []; Json.List [] ])

let test_json_parse_errors () =
  let raises s = try ignore (Json.parse s); false with Json.Parse_error _ -> true in
  Alcotest.(check bool) "trailing" true (raises "1 2");
  Alcotest.(check bool) "unterminated string" true (raises {|"abc|});
  Alcotest.(check bool) "bad literal" true (raises "nul");
  Alcotest.(check bool) "unclosed array" true (raises "[1, 2");
  Alcotest.(check bool) "bad hex digit" true (raises {|"\u12g4"|});
  Alcotest.(check bool) "truncated \\u" true (raises {|"\u12"|});
  Alcotest.(check bool) "lone high surrogate" true (raises {|"\ud83d"|});
  Alcotest.(check bool) "lone low surrogate" true (raises {|"\ude00"|});
  Alcotest.(check bool) "unknown escape" true (raises {|"\x41"|})

let test_json_accessors () =
  let doc = Json.parse {|{"x": 3, "s": "hi", "flag": false, "l": [1]}|} in
  Alcotest.(check int) "int" 3 (Json.to_int (Json.member "x" doc));
  Alcotest.(check string) "string" "hi" (Json.to_str (Json.member "s" doc));
  Alcotest.(check bool) "bool" false (Json.to_bool (Json.member "flag" doc));
  Alcotest.(check int) "list" 1 (List.length (Json.to_list (Json.member "l" doc)));
  Alcotest.(check bool) "missing member" true
    (try ignore (Json.member "nope" doc); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "member_opt" true (Json.member_opt "nope" doc = None);
  let rejects f v = try ignore (f v); false with Invalid_argument _ -> true in
  Alcotest.(check (float 0.0)) "to_float of Int" 3.0 (Json.to_float (Json.Int 3));
  Alcotest.(check int) "to_int of integral Float" 5 (Json.to_int (Json.parse "5.0"));
  Alcotest.(check int) "to_int at min_int" min_int
    (Json.to_int (Json.Float (Float.of_int min_int)));
  Alcotest.(check bool) "to_int fraction" true (rejects Json.to_int (Json.Float 2.5));
  Alcotest.(check bool) "to_int 1e300" true (rejects Json.to_int (Json.parse "1e300"));
  Alcotest.(check bool) "to_int 2^62" true (rejects Json.to_int (Json.Float 0x1p62));
  Alcotest.(check bool) "to_int -1e19" true (rejects Json.to_int (Json.Float (-1e19)))

(* Writing then parsing gives the value back, up to the documented number
   rule: an integral float below 1e15 is written without a fraction and
   reads as [Int], and a non-finite float is written as [null]. *)
let rec json_as_read = function
  | Json.Float f when not (Float.is_finite f) -> Json.Null
  | Json.Float f when Float.is_integer f && Float.abs f < 1e15 -> Json.Int (Float.to_int f)
  | Json.List l -> Json.List (List.map json_as_read l)
  | Json.Obj m -> Json.Obj (List.map (fun (k, v) -> (k, json_as_read v)) m)
  | v -> v

let json_reads_back v =
  let want = json_as_read v in
  Json.parse (Json.to_string v) = want && Json.parse (Json.to_string ~pretty:true v) = want

let test_json_write_parse () =
  let control = String.init 32 Char.chr ^ "\"\\\127\xff" in
  List.iter
    (fun (label, v) -> Alcotest.(check bool) label true (json_reads_back v))
    [
      ("control characters", Json.Str control);
      ("control characters in a key", Json.Obj [ (control, Json.Null) ]);
      ("\\u escape text", Json.Str {|\u0041 \ud83d|});
      ("max_int", Json.Int max_int);
      ("min_int", Json.Int min_int);
      ("nan", Json.List [ Json.Float Float.nan ]);
      ("infinity", Json.Obj [ ("x", Json.Float Float.infinity) ]);
      ("17 digits", Json.Float 0.047599999999999996);
      ("integral float", Json.Float 40.0);
      ("negative zero", Json.Float (-0.0));
      ("large integral float", Json.Float 1e15);
    ];
  Alcotest.(check bool) "non-finite becomes null" true
    (Json.parse (Json.to_string (Json.Float Float.neg_infinity)) = Json.Null)

let json_gen =
  QCheck.Gen.(
    let str = string_size ~gen:char (int_bound 12) in
    let num =
      oneof
        [
          map (fun i -> Json.Int i) int;
          oneofl [ Json.Int max_int; Json.Int min_int ];
          map (fun f -> Json.Float f) float;
          map (fun i -> Json.Float (Float.of_int i)) (int_range (-1000) 1000);
          oneofl [ Json.Float Float.nan; Json.Float Float.infinity ];
        ]
    in
    let leaf =
      oneof [ pure Json.Null; map (fun b -> Json.Bool b) bool; num; map (fun s -> Json.Str s) str ]
    in
    sized_size (int_bound 4)
      (fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n - 1))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_bound 4) (pair str (self (n - 1)))) );
               ])))

let prop_json_write_parse =
  QCheck.Test.make ~count:500 ~name:"json values read back after writing"
    (QCheck.make ~print:Json.to_string json_gen)
    json_reads_back

let test_machine_io_roundtrip_all () =
  List.iter
    (fun m ->
      let m' = Machine_io.of_string (Machine_io.to_string m) in
      Alcotest.(check string) "name" m.Machine.name m'.Machine.name;
      Alcotest.(check int) "qubits" (Machine.n_qubits m) (Machine.n_qubits m');
      Alcotest.(check bool) "edges" true
        (Topology.edges m.Machine.topology = Topology.edges m'.Machine.topology);
      Alcotest.(check bool) "directed" true
        (Topology.directed m.Machine.topology = Topology.directed m'.Machine.topology);
      Alcotest.(check (float 1e-12)) "2q err"
        m.Machine.profile.Calibration.avg_two_q_err
        m'.Machine.profile.Calibration.avg_two_q_err;
      (* Calibration histories must be identical (same seed). *)
      let c = Machine.calibration m ~day:3 and c' = Machine.calibration m' ~day:3 in
      Alcotest.(check bool) "same calibration" true
        (c.Calibration.two_q = c'.Calibration.two_q))
    Machines.all

let test_machine_io_validation () =
  let raises s = try ignore (Machine_io.of_string s); false with Machine_io.Error _ -> true in
  Alcotest.(check bool) "bad json" true (raises "{");
  Alcotest.(check bool) "missing fields" true (raises "{}");
  Alcotest.(check bool) "bad interface" true
    (raises
       {|{"name":"x","interface":"dwave","qubits":2,"edges":[[0,1]],
          "profile":{"one_q_err":0.01,"two_q_err":0.02,"readout_err":0.03,
          "coherence_us":10,"one_q_time_us":0.1,"two_q_time_us":0.2,
          "spatial_sigma":0.1,"temporal_sigma":0.1}}|});
  Alcotest.(check bool) "error rate over 1" true
    (raises
       {|{"name":"x","interface":"ibm","qubits":2,"edges":[[0,1]],
          "profile":{"one_q_err":1.5,"two_q_err":0.02,"readout_err":0.03,
          "coherence_us":10,"one_q_time_us":0.1,"two_q_time_us":0.2,
          "spatial_sigma":0.1,"temporal_sigma":0.1}}|});
  Alcotest.(check bool) "disconnected topology" true
    (raises
       {|{"name":"x","interface":"ibm","qubits":4,"edges":[[0,1]],
          "profile":{"one_q_err":0.01,"two_q_err":0.02,"readout_err":0.03,
          "coherence_us":10,"one_q_time_us":0.1,"two_q_time_us":0.2,
          "spatial_sigma":0.1,"temporal_sigma":0.1}}|});
  (* Numbers written in the file must not size the work: an exported
     IBMQ5 claiming 50 million qubits over its 6 edges can never be
     connected, and is rejected before any per-qubit allocation. *)
  let with_qubits q =
    match Machine_io.to_json Machines.ibmq5 with
    | Json.Obj fields ->
      Json.to_string
        (Json.Obj (List.map (fun (k, v) -> (k, if k = "qubits" then q else v)) fields))
    | _ -> Alcotest.fail "exported machine is not an object"
  in
  let error_of s =
    match Machine_io.of_string s with
    | _ -> "accepted"
    | exception Machine_io.Error msg -> msg
  in
  Alcotest.(check string) "ibmq5 re-reads" "IBMQ5"
    (Machine_io.of_string (with_qubits (Json.Int 5))).Machine.name;
  let t0 = Sys.time () in
  Alcotest.(check string) "more qubits than edges + 1"
    "bad machine: Machine.create: disconnected topology"
    (error_of (with_qubits (Json.Int 50_000_000)));
  Alcotest.(check bool) "rejected in under 0.1 s of CPU" true (Sys.time () -. t0 < 0.1);
  Alcotest.(check string) "qubits out of int range" "qubits: Json.to_int: out of range"
    (error_of (with_qubits (Json.Float 1e300)));
  Alcotest.(check string) "qubits as a string" "qubits: Json.to_int: not a number"
    (error_of (with_qubits (Json.Str "5")))

(* Retargeting: a machine exported and read back compiles every bundled
   program that fits, at every level, to the byte-identical executable
   the built-in machine gives. *)
let test_machine_io_retargeting () =
  let config = Triq.Pass.Config.make ~layout_cache:false () in
  let programs = Bench_kit.Programs.all @ Bench_kit.Programs.extras in
  let cells = ref 0 in
  List.iter
    (fun m ->
      let m' = Machine_io.of_string (Machine_io.to_string m) in
      List.iter
        (fun (p : Bench_kit.Programs.t) ->
          if Machine.fits m p.Bench_kit.Programs.circuit then
            List.iter
              (fun level ->
                let emit machine =
                  Backend.Emit.executable
                    (Triq.Pipeline.compile_level ~config machine
                       p.Bench_kit.Programs.circuit ~level)
                in
                incr cells;
                Alcotest.(check string)
                  (Printf.sprintf "%s %s %s" m.Machine.name p.Bench_kit.Programs.name
                     (Triq.Pipeline.level_name level))
                  (emit m) (emit m'))
              Triq.Pipeline.all_levels)
        programs)
    (Machines.all @ Machines.extended);
  Alcotest.(check bool) "cells compiled" true (!cells > 0)

let test_machine_io_usable_for_compilation () =
  (* A machine loaded from JSON drives the full pipeline. *)
  let m = Machine_io.of_string (Machine_io.to_string Machines.agave) in
  let p = Circuit.measure_all
      (Circuit.create 2 [ G.One (G.H, 0); G.Two (G.Cnot, 0, 1) ]) [ 0; 1 ] in
  let compiled = Triq.Pipeline.compile_level m p ~level:Triq.Pipeline.OneQOptCN in
  Alcotest.(check bool) "compiles" true (compiled.Triq.Compiled.two_q_count > 0)

(* qcheck: random ring machines roundtrip through JSON exactly. *)
let machine_gen =
  QCheck.Gen.(
    map3
      (fun n two_q seed ->
        Machine.create
          ~name:(Printf.sprintf "Rand%d" n)
          ~basis:Gateset.Rigetti_visible ~topology:(Topology.ring n)
          ~profile:
            {
              Calibration.avg_one_q_err = 0.002;
              avg_two_q_err = two_q;
              avg_readout_err = 0.03;
              coherence_us = 25.0;
              one_q_time_us = 0.05;
              two_q_time_us = 0.25;
              spatial_sigma = 0.4;
              temporal_sigma = 0.2;
              two_q_scale = None;
            }
          ~seed)
      (int_range 3 12)
      (float_range 0.005 0.2)
      (int_range 1 100000))

let prop_machine_io_roundtrip =
  QCheck.Test.make ~count:100 ~name:"random machines roundtrip through JSON"
    (QCheck.make machine_gen) (fun m ->
      let m' = Machine_io.of_string (Machine_io.to_string m) in
      Machine.n_qubits m = Machine.n_qubits m'
      && Topology.edges m.Machine.topology = Topology.edges m'.Machine.topology
      && Machine.calibration m ~day:2 = Machine.calibration m' ~day:2)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_machine_io_roundtrip; prop_json_write_parse ]

let () =
  Alcotest.run "device"
    [
      ( "topology",
        [
          Alcotest.test_case "line" `Quick test_topology_line;
          Alcotest.test_case "ring" `Quick test_topology_ring;
          Alcotest.test_case "grid" `Quick test_topology_grid;
          Alcotest.test_case "fully connected" `Quick test_topology_fully_connected;
          Alcotest.test_case "directed" `Quick test_topology_directed;
          Alcotest.test_case "validation" `Quick test_topology_validation;
          Alcotest.test_case "neighbors" `Quick test_topology_neighbors_sorted;
          Alcotest.test_case "disconnected" `Quick test_topology_disconnected;
          Alcotest.test_case "heavy hex" `Quick test_topology_heavy_hex;
          Alcotest.test_case "metrics" `Quick test_topology_metrics;
        ] );
      ( "gateset",
        [
          Alcotest.test_case "visibility" `Quick test_gateset_visibility;
          Alcotest.test_case "error free" `Quick test_gateset_error_free;
          Alcotest.test_case "pulse counts" `Quick test_gateset_pulse_counts;
          Alcotest.test_case "circuit pulses" `Quick test_gateset_circuit_pulse_count;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "deterministic" `Quick test_calibration_deterministic;
          Alcotest.test_case "daily drift" `Quick test_calibration_day_varies;
          Alcotest.test_case "clamped" `Quick test_calibration_clamped;
          Alcotest.test_case "mean tracks profile" `Quick
            test_calibration_mean_tracks_profile;
          Alcotest.test_case "sc varies more" `Quick
            test_calibration_superconducting_varies_more;
          Alcotest.test_case "explicit validation" `Quick
            test_calibration_explicit_validation;
          Alcotest.test_case "edge lookup" `Quick test_calibration_missing_edge;
          Alcotest.test_case "negative day" `Quick test_calibration_negative_day;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "write then parse" `Quick test_json_write_parse;
        ] );
      ( "machine_io",
        [
          Alcotest.test_case "roundtrip all machines" `Quick test_machine_io_roundtrip_all;
          Alcotest.test_case "validation" `Quick test_machine_io_validation;
          Alcotest.test_case "retargeting executables" `Quick test_machine_io_retargeting;
          Alcotest.test_case "usable for compilation" `Quick
            test_machine_io_usable_for_compilation;
        ] );
      ( "machines",
        [
          Alcotest.test_case "inventory (fig 1)" `Quick test_machines_inventory;
          Alcotest.test_case "connected" `Quick test_machines_connected;
          Alcotest.test_case "umdti full" `Quick test_machines_umdti_fully_connected;
          Alcotest.test_case "vendors" `Quick test_machines_vendors;
          Alcotest.test_case "find" `Quick test_machines_find_case_insensitive;
          Alcotest.test_case "fits" `Quick test_machines_fits;
          Alcotest.test_case "require_fits" `Quick test_machines_require_fits;
          Alcotest.test_case "duration" `Quick test_machines_duration;
          Alcotest.test_case "extended inventory" `Quick test_machines_extended;
          Alcotest.test_case "example 8q" `Quick test_machines_example_8q;
        ] );
      ("properties", qcheck_cases);
    ]
