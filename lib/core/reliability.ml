module Topology = Device.Topology
module Calibration = Device.Calibration
module Machine = Device.Machine

type t = {
  n : int;
  topology : Topology.t;
  edge_rel : float array array;
      (** dense coupling reliability; negative when uncoupled *)
  swap_rel : float array array;  (** max-product swap reliability, hops^3 *)
  next_hop : int array array;  (** successor matrix for path reconstruction *)
  score : float array array;
  best_neighbor : int array array;  (** argmax t' for (c, t); -1 if none *)
  readout : float array;
}

let uncoupled = -1.0

let of_calibration ~noise_aware topology calibration =
  let n = Topology.n_qubits topology in
  let avg = Calibration.average_two_q_err calibration in
  let edge_error a b =
    if noise_aware then Calibration.two_q_err calibration a b else avg
  in
  (* O(1) adjacency lookups: dense n x n reliability with a negative
     sentinel on uncoupled pairs (replaces the former assoc list). *)
  let edge_rel = Array.make_matrix n n uncoupled in
  List.iter
    (fun (a, b) ->
      let r = 1.0 -. edge_error a b in
      edge_rel.(a).(b) <- r;
      edge_rel.(b).(a) <- r)
    (Topology.edges topology);
  (* Floyd-Warshall on swap reliabilities: one hop costs rel^3 (the three
     CNOTs of a SWAP). Maximize the product over hops. *)
  let swap_rel = Array.make_matrix n n 0.0 in
  let next_hop = Array.make_matrix n n (-1) in
  for q = 0 to n - 1 do
    swap_rel.(q).(q) <- 1.0;
    next_hop.(q).(q) <- q
  done;
  List.iter
    (fun (a, b) ->
      let r = edge_rel.(a).(b) in
      let r3 = r *. r *. r in
      swap_rel.(a).(b) <- r3;
      swap_rel.(b).(a) <- r3;
      next_hop.(a).(b) <- b;
      next_hop.(b).(a) <- a)
    (Topology.edges topology);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = swap_rel.(i).(k) *. swap_rel.(k).(j) in
        if via > swap_rel.(i).(j) then begin
          swap_rel.(i).(j) <- via;
          next_hop.(i).(j) <- next_hop.(i).(k)
        end
      done
    done
  done;
  (* Score (c, t): best neighbour t' of t maximizing swap_rel(c, t') times
     the direct t'-t coupling reliability. *)
  let score = Array.make_matrix n n 0.0 in
  let best_neighbor = Array.make_matrix n n (-1) in
  for c = 0 to n - 1 do
    for tgt = 0 to n - 1 do
      if c <> tgt then
        List.iter
          (fun t' ->
            if t' <> tgt then begin
              let candidate = swap_rel.(c).(t') *. edge_rel.(t').(tgt) in
              if candidate > score.(c).(tgt) then begin
                score.(c).(tgt) <- candidate;
                best_neighbor.(c).(tgt) <- t'
              end
            end)
          (Topology.neighbors topology tgt)
    done
  done;
  let readout =
    Array.init n (fun q -> 1.0 -. Calibration.readout_err calibration q)
  in
  { n; topology; edge_rel; swap_rel; next_hop; score; best_neighbor; readout }

let compute ~noise_aware machine calibration =
  of_calibration ~noise_aware machine.Device.Machine.topology calibration

let n_qubits t = t.n

let check t q = if q < 0 || q >= t.n then invalid_arg "Reliability: qubit out of range"

let score t c tgt =
  check t c;
  check t tgt;
  t.score.(c).(tgt)

let score_matrix t = t.score

let edge_reliability t a b =
  check t a;
  check t b;
  let r = t.edge_rel.(a).(b) in
  if r < 0.0 then raise Not_found;
  r

let swap_reliability t a b =
  check t a;
  check t b;
  t.swap_rel.(a).(b)

let reconstruct_path t src dst =
  if t.next_hop.(src).(dst) < 0 then raise Not_found;
  let rec walk acc cur =
    if cur = dst then List.rev (cur :: acc)
    else walk (cur :: acc) t.next_hop.(cur).(dst)
  in
  walk [] src

let swap_path t c tgt =
  check t c;
  check t tgt;
  if c = tgt then invalid_arg "Reliability.swap_path: same qubit";
  let t' = t.best_neighbor.(c).(tgt) in
  if t' < 0 then raise Not_found;
  reconstruct_path t c t'

let path_between t a b =
  check t a;
  check t b;
  if a = b then [ a ] else reconstruct_path t a b

let readout_reliability t q =
  check t q;
  t.readout.(q)

let readout_vector t = t.readout

let equal a b =
  a.n = b.n
  && Topology.edges a.topology = Topology.edges b.topology
  && a.edge_rel = b.edge_rel && a.swap_rel = b.swap_rel
  && a.next_hop = b.next_hop && a.score = b.score
  && a.best_neighbor = b.best_neighbor && a.readout = b.readout

let pp fmt t =
  Format.fprintf fmt "    ";
  for j = 0 to t.n - 1 do
    Format.fprintf fmt "%5d " j
  done;
  Format.fprintf fmt "@\n";
  for i = 0 to t.n - 1 do
    Format.fprintf fmt "%3d " i;
    for j = 0 to t.n - 1 do
      if i = j then Format.fprintf fmt "    - "
      else Format.fprintf fmt "%5.2f " t.score.(i).(j)
    done;
    Format.fprintf fmt "@\n"
  done

(* ---- calibration-keyed cache ----

   A sweep recompiles the same (machine, day) pair dozens of times (12
   benchmarks x 4 levels per machine in the paper's grid); the O(n^3)
   Floyd-Warshall pass and the score matrices depend only on (machine,
   day, noise_aware), so they are shared. The table is guarded by a
   mutex and safe to use from pool workers; on the rare double-miss race
   both domains compute the same value and the last store wins. *)

type cache_key = {
  k_name : string;
  k_seed : int;
  k_day : int;
  k_noise_aware : bool;
}

let cache : (cache_key, Machine.t * t) Hashtbl.t = Hashtbl.create 64
let cache_mutex = Mutex.create ()
let hits = ref 0
let misses = ref 0

(* The [hits]/[misses] refs reset with [cache_clear] (they describe the
   current cache generation, which sweeps compare across -j levels); the
   Obs counters are cumulative over the process, for traces and the
   bench timings report. *)
let obs_hits = Obs.Metrics.counter "triq.reliability.cache.hits"
let obs_misses = Obs.Metrics.counter "triq.reliability.cache.misses"
let obs_evictions = Obs.Metrics.counter "triq.reliability.cache.evictions"

(* Machine names are not globally unique (users build machines by hand in
   tests and examples), so a hit must also verify the cached machine
   really is the one being asked about. *)
(* Field-wise: [two_q_scale] holds a closure, so polymorphic compare on
   whole profiles would raise; distinct closures count as distinct
   profiles (the conservative direction — at worst a needless miss). *)
let same_profile (a : Calibration.profile) (b : Calibration.profile) =
  a.Calibration.avg_one_q_err = b.Calibration.avg_one_q_err
  && a.Calibration.avg_two_q_err = b.Calibration.avg_two_q_err
  && a.Calibration.avg_readout_err = b.Calibration.avg_readout_err
  && a.Calibration.coherence_us = b.Calibration.coherence_us
  && a.Calibration.one_q_time_us = b.Calibration.one_q_time_us
  && a.Calibration.two_q_time_us = b.Calibration.two_q_time_us
  && a.Calibration.spatial_sigma = b.Calibration.spatial_sigma
  && a.Calibration.temporal_sigma = b.Calibration.temporal_sigma
  &&
  match (a.Calibration.two_q_scale, b.Calibration.two_q_scale) with
  | None, None -> true
  | Some f, Some g -> f == g
  | _ -> false

let same_machine (a : Machine.t) (b : Machine.t) =
  a == b
  || (a.Machine.name = b.Machine.name
     && a.Machine.seed = b.Machine.seed
     && a.Machine.basis = b.Machine.basis
     && same_profile a.Machine.profile b.Machine.profile
     && Topology.directed a.Machine.topology = Topology.directed b.Machine.topology
     && Topology.edges a.Machine.topology = Topology.edges b.Machine.topology
     && Topology.n_qubits a.Machine.topology = Topology.n_qubits b.Machine.topology)

let compute_cached ~noise_aware ?calibration machine ~day =
  let key =
    {
      k_name = machine.Machine.name;
      k_seed = machine.Machine.seed;
      k_day = day;
      k_noise_aware = noise_aware;
    }
  in
  let cached =
    Mutex.protect cache_mutex (fun () ->
        match Hashtbl.find_opt cache key with
        | Some (m, r) when same_machine m machine ->
          incr hits;
          Obs.Metrics.incr obs_hits;
          Some r
        | _ ->
          incr misses;
          Obs.Metrics.incr obs_misses;
          None)
  in
  match cached with
  | Some r -> r
  | None ->
    let calibration =
      match calibration with
      | Some c -> c
      | None -> Machine.calibration machine ~day
    in
    let r = compute ~noise_aware machine calibration in
    Mutex.protect cache_mutex (fun () -> Hashtbl.replace cache key (machine, r));
    r

let cache_clear () =
  Mutex.protect cache_mutex (fun () ->
      Obs.Metrics.incr obs_evictions ~by:(Hashtbl.length cache);
      Hashtbl.reset cache;
      hits := 0;
      misses := 0)

let cache_stats () = Mutex.protect cache_mutex (fun () -> (!hits, !misses))
