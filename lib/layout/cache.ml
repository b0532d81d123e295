(* The layout cache, modeled on Triq.Reliability's calibration-keyed
   matrix cache: process-wide, mutex-guarded, bounded LRU, with
   observability counters and structural verification on every hit.

   Entries are keyed by (scope string, canonical-form hash) and verified
   against (token physical identity, scope, canonical form). The token is
   the score model the placement was solved under — callers pass their
   reliability matrix; [==] is the right equality because the reliability
   layer's own cache returns the identical matrix object for the same
   (machine, day, noise-awareness), and structurally different models
   never share one. Placements are stored in canonical labels, so a hit
   from a relabeled circuit is translated through its own permutation.

   Canonicalization dominates the cost of a hit: WL refinement with
   individualization spends its full budget on symmetric interaction
   graphs (stars, cycles). [canon] memoizes it on the raw interaction
   structure, so repeated compiles of the same circuit skip straight to
   the cached form while relabeled circuits miss the memo and fall
   through to the full canonization. The memo is keyed structurally, so
   it can never alias two different placement problems, and it shares
   the entries' mutex: lookups and inserts hold it, canonicalization
   runs outside it. *)

type 'tok entry = {
  token : 'tok;
  scope : string;
  form : Canon.form;
  canonical_placement : int array;  (* canonical program qubit -> hardware *)
  proven_optimal : bool;
  mutable last_use : int;
}

type 'tok t = {
  capacity : int;
  table : (string * int, 'tok entry list ref) Hashtbl.t;
  canon_memo : (int * ((int * int) * int) list * int list, Canon.t) Hashtbl.t;
  mutable size : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutex : Mutex.t;
}

let obs_hits = Obs.Metrics.counter "layout.cache.hits"
let obs_misses = Obs.Metrics.counter "layout.cache.misses"
let obs_evictions = Obs.Metrics.counter "layout.cache.evictions"

let create ?(capacity = 512) () =
  if capacity <= 0 then invalid_arg "Layout.Cache.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create 64;
    canon_memo = Hashtbl.create 64;
    size = 0;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    mutex = Mutex.create ();
  }

let lookup t ~token ~scope (canon : Canon.t) =
  Mutex.protect t.mutex (fun () ->
      t.clock <- t.clock + 1;
      let found =
        match Hashtbl.find_opt t.table (scope, canon.Canon.hash) with
        | None -> None
        | Some bucket ->
          List.find_opt
            (fun e ->
              e.token == token && e.scope = scope
              && Canon.equal_form e.form canon.Canon.form)
            !bucket
      in
      match found with
      | Some e ->
        e.last_use <- t.clock;
        t.hits <- t.hits + 1;
        Obs.Metrics.incr obs_hits;
        let placement =
          Array.init canon.Canon.form.Canon.n (fun p ->
              e.canonical_placement.(canon.Canon.perm.(p)))
        in
        Some (placement, e.proven_optimal)
      | None ->
        t.misses <- t.misses + 1;
        Obs.Metrics.incr obs_misses;
        None)

let evict_lru t =
  (* O(size) scan; eviction is rare and the cache is small. *)
  let victim = ref None in
  Hashtbl.iter
    (fun key bucket ->
      List.iter
        (fun e ->
          match !victim with
          | Some (_, v) when v.last_use <= e.last_use -> ()
          | _ -> victim := Some (key, e))
        !bucket)
    t.table;
  match !victim with
  | None -> ()
  | Some (key, e) ->
    let bucket = Hashtbl.find t.table key in
    bucket := List.filter (fun e' -> not (e' == e)) !bucket;
    if !bucket = [] then Hashtbl.remove t.table key;
    t.size <- t.size - 1;
    t.evictions <- t.evictions + 1;
    Obs.Metrics.incr obs_evictions

let store t ~token ~scope (canon : Canon.t) ~proven_optimal placement =
  let n = canon.Canon.form.Canon.n in
  if Array.length placement <> n then
    invalid_arg "Layout.Cache.store: placement/canon size mismatch";
  let canonical_placement = Array.make n (-1) in
  Array.iteri (fun p h -> canonical_placement.(canon.Canon.perm.(p)) <- h) placement;
  Mutex.protect t.mutex (fun () ->
      t.clock <- t.clock + 1;
      let key = (scope, canon.Canon.hash) in
      let bucket =
        match Hashtbl.find_opt t.table key with
        | Some b -> b
        | None ->
          let b = ref [] in
          Hashtbl.replace t.table key b;
          b
      in
      let already =
        List.exists
          (fun e ->
            e.token == token && e.scope = scope
            && Canon.equal_form e.form canon.Canon.form)
          !bucket
      in
      if not already then begin
        if t.size >= t.capacity then evict_lru t;
        bucket :=
          {
            token;
            scope;
            form = canon.Canon.form;
            canonical_placement;
            proven_optimal;
            last_use = t.clock;
          }
          :: !bucket;
        t.size <- t.size + 1
      end)

let canon t (pr : Problem.t) =
  let key = (pr.Problem.n_program, pr.Problem.pairs, pr.Problem.measured) in
  match Mutex.protect t.mutex (fun () -> Hashtbl.find_opt t.canon_memo key) with
  | Some c -> c
  | None ->
    let c = Canon.of_problem pr in
    Mutex.protect t.mutex (fun () ->
        if Hashtbl.length t.canon_memo >= t.capacity then Hashtbl.reset t.canon_memo;
        Hashtbl.replace t.canon_memo key c);
    c

let clear t =
  Mutex.protect t.mutex (fun () ->
      Obs.Metrics.incr obs_evictions ~by:t.size;
      Hashtbl.reset t.table;
      Hashtbl.reset t.canon_memo;
      t.size <- 0;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)

type stats = { hits : int; misses : int; evictions : int; size : int }

let stats t =
  Mutex.protect t.mutex (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions; size = t.size })
