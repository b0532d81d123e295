(* Branch-and-bound placement search.

   The paper's max-min search over Problem.t, extended with two
   additional *sound* pruning devices:

   - a memoized partial-assignment bound: per-qubit optimistic caps
     (precomputed once from row maxima of the score model) folded into
     suffix tables over the fixed placement order, giving an O(1)
     admissible bound on what any completion of the current partial
     assignment can still achieve;

   - dominance pruning over symmetric hardware qubits: hardware qubits
     with bitwise-identical score/readout profiles are interchangeable, so
     at each node only the first unused member of each symmetry class is
     branched on.

   Both prunings only discard subtrees that provably cannot change the
   recorded incumbent chain, so the returned placement (and objective) is
   bit-identical to the original un-pruned search. The argument relies on
   reliability values that are either bitwise equal or separated by much
   more than the 1e-12 tie tolerance — true of every calibration model in
   the tree, and pinned by the golden pipeline fixtures in
   test/test_layout.ml.

   A search node costs memory reads. Once per solve, the score matrix is
   flattened and every score and readout gets its clamped log,
   [log (Float.max r log_floor)] (the term [Problem.evaluate] takes), so
   a node sums table entries instead of calling [log]. Each program
   qubit's partners become parallel arrays, and each depth owns a
   preallocated candidate buffer kept sorted by insertion. The running
   (min, log) pair of every depth lives in float arrays, so the
   recursion passes only the depth and allocates nothing between
   incumbents. *)

let log_floor = Problem.log_floor
let default_node_budget = 200_000

(* The problem's score model, flat: [score.(h * n + h')] is the directed
   score from h to h', [log_score] its clamped log; likewise readouts. *)
type tables = {
  n : int;
  score : float array;
  log_score : float array;
  readout : float array;
  log_readout : float array;
}

let clamped_log r = log (Float.max r log_floor)

let tables (pr : Problem.t) =
  let n = pr.n_hardware in
  let score = Array.make (n * n) 0.0 in
  Array.iteri (fun h row -> Array.blit row 0 score (h * n) n) pr.score;
  {
    n;
    score;
    log_score = Array.map clamped_log score;
    readout = pr.readout;
    log_readout = Array.map clamped_log pr.readout;
  }

(* Hardware symmetry classes: rep.(h) is the smallest hardware qubit whose
   score/readout profile is bitwise identical to h's (swapping the two
   qubits is an automorphism of the score model). *)
let symmetry_reps tb =
  let n = tb.n and score = tb.score in
  let rep = Array.init n (fun h -> h) in
  let same h1 h2 =
    tb.readout.(h1) = tb.readout.(h2)
    && score.((h1 * n) + h2) = score.((h2 * n) + h1)
    && (let ok = ref true in
        for x = 0 to n - 1 do
          if x <> h1 && x <> h2 then
            if
              score.((h1 * n) + x) <> score.((h2 * n) + x)
              || score.((x * n) + h1) <> score.((x * n) + h2)
            then ok := false
        done;
        !ok)
  in
  for h2 = 1 to n - 1 do
    let h1 = ref 0 in
    while !h1 < h2 && rep.(h2) = h2 do
      if rep.(!h1) = !h1 && same !h1 h2 then rep.(h2) <- !h1;
      incr h1
    done
  done;
  rep

(* Optimistic per-qubit caps and suffix bounds over the placement order.

   cap_min.(q) bounds the best min-contribution qubit [q]'s own terms can
   achieve over any placement; suffix_min.(k) = min of caps over order
   positions >= k. For the product objective, each edge is attributed to
   the later-placed endpoint and bounded by the global best directed
   score; suffix_log.(k) sums those optimistic log terms for positions
   >= k. *)
type bounds = { suffix_min : float array; suffix_log : float array }

let compute_bounds (pr : Problem.t) tb order partners measured_set =
  let n = pr.n_program and h_n = tb.n in
  let rowmax_out = Array.make h_n neg_infinity in
  let rowmax_in = Array.make h_n neg_infinity in
  let global_max = ref neg_infinity in
  for h = 0 to h_n - 1 do
    for h' = 0 to h_n - 1 do
      if h <> h' then begin
        let s = tb.score.((h * h_n) + h') in
        if s > rowmax_out.(h) then rowmax_out.(h) <- s;
        if s > rowmax_in.(h') then rowmax_in.(h') <- s;
        if s > !global_max then global_max := s
      end
    done
  done;
  let cap_min = Array.make n infinity in
  for q = 0 to n - 1 do
    let best = ref neg_infinity in
    for h = 0 to h_n - 1 do
      let cap = ref infinity in
      List.iter
        (fun (_, oriented, _) ->
          let rm = if oriented then rowmax_out.(h) else rowmax_in.(h) in
          if rm < !cap then cap := rm)
        partners.(q);
      if measured_set.(q) then begin
        let r = tb.readout.(h) in
        if r < !cap then cap := r
      end;
      if !cap > !best then best := !cap
    done;
    cap_min.(q) <- !best
  done;
  let pos = Array.make n 0 in
  Array.iteri (fun k q -> pos.(q) <- k) order;
  (* Log terms accounted at each order position: an edge lands on the
     later-placed endpoint; a readout on its own qubit. *)
  let log_at = Array.make n 0.0 in
  let edge_log = clamped_log !global_max in
  List.iter
    (fun ((a, b), count) ->
      let later = if pos.(a) > pos.(b) then pos.(a) else pos.(b) in
      log_at.(later) <- log_at.(later) +. (float_of_int count *. edge_log))
    pr.pairs;
  let max_readout = Array.fold_left (fun m r -> if r > m then r else m) neg_infinity tb.readout in
  List.iter
    (fun m -> log_at.(pos.(m)) <- log_at.(pos.(m)) +. clamped_log max_readout)
    pr.measured;
  let suffix_min = Array.make (n + 1) infinity in
  let suffix_log = Array.make (n + 1) 0.0 in
  for k = n - 1 downto 0 do
    suffix_min.(k) <- Float.min suffix_min.(k + 1) cap_min.(order.(k));
    (* Optimistic log terms are <= 0 only when scores are <= 1; clamp at 0
       so the bound stays admissible for any score model. *)
    suffix_log.(k) <- suffix_log.(k + 1) +. Float.min 0.0 log_at.(k)
  done;
  { suffix_min; suffix_log }

(* The incumbent's scores: an all-float record, stored flat. *)
type incumbent = { mutable best_min : float; mutable best_log : float }

let solve ?(node_budget = default_node_budget) (pr : Problem.t) : Report.t =
  let n_program = pr.n_program and n_hardware = pr.n_hardware in
  let max_min = match pr.objective with Problem.Max_min -> true | Problem.Product -> false in
  let tb = tables pr in
  let partners = Problem.partners pr in
  let measured_set = Problem.measured_set pr in
  let order = Problem.order pr in
  let rep = symmetry_reps tb in
  let { suffix_min; suffix_log } = compute_bounds pr tb order partners measured_set in
  (* partners.(p) as parallel arrays, in the same order (the cost's
     summation order), with counts as the floats the cost multiplies by. *)
  let column f = Array.map (fun l -> Array.of_list (List.map f l)) partners in
  let partner_other = column (fun (o, _, _) -> o) in
  let partner_oriented = column (fun (_, o, _) -> o) in
  let partner_count = column (fun (_, _, c) -> float_of_int c) in
  let score = tb.score and log_score = tb.log_score in
  let readout = tb.readout and log_readout = tb.log_readout in
  let placement = Array.make n_program (-1) in
  let used = Array.make n_hardware false in
  let class_seen = Array.make n_hardware false in
  (* Candidates of depth d live at [d * n_hardware ..], best first. *)
  let cand_min = Array.make (n_program * n_hardware) 0.0 in
  let cand_log = Array.make (n_program * n_hardware) 0.0 in
  let cand_hw = Array.make (n_program * n_hardware) 0 in
  (* The (min, log) of the partial placement at each depth. *)
  let path_min = Array.make (n_program + 1) 1.0 in
  let path_log = Array.make (n_program + 1) 0.0 in
  let nodes = ref 0 in
  let truncated = ref false in
  (* The trivial placement is the first incumbent. *)
  let best_placement = Problem.trivial pr in
  let best =
    let m, lp = Problem.evaluate pr best_placement in
    { best_min = m; best_log = lp }
  in
  (* The original viability rule, plus the O(1) suffix bound: a branch is
     kept only when an optimistic completion could still be recorded. *)
  let[@inline] viable depth next_min next_log =
    if max_min then
      next_min >= best.best_min -. 1e-12
      && Float.min next_min suffix_min.(depth) >= best.best_min -. 1e-12
    else next_log > best.best_log && next_log +. suffix_log.(depth) >= best.best_log
  in
  (* Sort key of the candidate buffer: max-min orders by min, then log;
     product by log, then min; both descending. Hardware qubits arrive in
     ascending order and a new candidate goes ahead of every equal key, so
     ties leave in descending hardware index — part of the search order
     the pinned node counts and placements depend on. *)
  let[@inline] goes_before m lp j =
    if max_min then
      let c = Float.compare m cand_min.(j) in
      c > 0 || (c = 0 && Float.compare lp cand_log.(j) >= 0)
    else
      let c = Float.compare lp cand_log.(j) in
      c > 0 || (c = 0 && Float.compare m cand_min.(j) >= 0)
  in
  let rec search depth =
    if !truncated then ()
    else begin
      let cur_min = path_min.(depth) and cur_log = path_log.(depth) in
      if depth = n_program then begin
        (* Incumbent recording rule — identical to the original search. *)
        let better =
          if max_min then
            cur_min > best.best_min +. 1e-12
            || (cur_min > best.best_min -. 1e-12 && cur_log > best.best_log)
          else
            cur_log > best.best_log
            || (cur_log = best.best_log && cur_min > best.best_min +. 1e-12)
        in
        if better then begin
          best.best_min <- cur_min;
          best.best_log <- cur_log;
          Array.blit placement 0 best_placement 0 n_program
        end
      end
      else begin
        let p = order.(depth) in
        let others = partner_other.(p) in
        let oriented = partner_oriented.(p) in
        let counts = partner_count.(p) in
        let measured = measured_set.(p) in
        let base = depth * n_hardware in
        let n_cand = ref 0 in
        (* Candidate hardware qubits, best local cost first. Dominance: only
           the first unused member of each hardware symmetry class is
           branched on — its class twins root isomorphic subtrees explored
           no earlier, which can never improve on it. *)
        Array.fill class_seen 0 n_hardware false;
        for h = 0 to n_hardware - 1 do
          if (not used.(h)) && not class_seen.(rep.(h)) then begin
            class_seen.(rep.(h)) <- true;
            (* The placement cost of p on h against the placed partners. *)
            let m = ref 1.0 and lp = ref 0.0 in
            for i = 0 to Array.length others - 1 do
              let oh = placement.(others.(i)) in
              if oh >= 0 then begin
                let k = if oriented.(i) then (h * n_hardware) + oh else (oh * n_hardware) + h in
                let r = score.(k) in
                if r < !m then m := r;
                lp := !lp +. (counts.(i) *. log_score.(k))
              end
            done;
            if measured then begin
              let r = readout.(h) in
              if r < !m then m := r;
              lp := !lp +. log_readout.(h)
            end;
            let m = !m and lp = !lp in
            if viable (depth + 1) (Float.min cur_min m) (cur_log +. lp) then begin
              let j = ref (base + !n_cand) in
              while !j > base && goes_before m lp (!j - 1) do
                cand_min.(!j) <- cand_min.(!j - 1);
                cand_log.(!j) <- cand_log.(!j - 1);
                cand_hw.(!j) <- cand_hw.(!j - 1);
                decr j
              done;
              cand_min.(!j) <- m;
              cand_log.(!j) <- lp;
              cand_hw.(!j) <- h;
              incr n_cand
            end
          end
        done;
        let i = ref base in
        while !i < base + !n_cand && not !truncated do
          incr nodes;
          if !nodes > node_budget then truncated := true
          else begin
            let h = cand_hw.(!i) in
            let next_min = Float.min cur_min cand_min.(!i) in
            let next_log = cur_log +. cand_log.(!i) in
            if viable (depth + 1) next_min next_log then begin
              placement.(p) <- h;
              used.(h) <- true;
              path_min.(depth + 1) <- next_min;
              path_log.(depth + 1) <- next_log;
              search (depth + 1);
              used.(h) <- false;
              placement.(p) <- -1
            end
          end;
          incr i
        done
      end
    end
  in
  search 0;
  {
    Report.strategy = "bb";
    placement = best_placement;
    objective = best.best_min;
    log_product = best.best_log;
    proven_optimal = not !truncated;
    work = { Report.no_work with search_nodes = !nodes };
    cache = Report.Bypass;
  }
