(** The layout cache: O(1) placement reuse for repeated traffic, modeled
    on [Triq.Reliability]'s calibration-keyed matrix cache (bounded LRU,
    mutex-guarded, observability counters, verified hits).

    Keys combine a [scope] string (strategy/objective/budget/machine/day —
    anything that changes the answer), a ['tok] score-model token compared
    by *physical identity* (callers pass their reliability matrix; the
    reliability layer's own cache guarantees one object per distinct
    model), and the circuit's canonical interaction-graph {!Canon.t}.
    Hits verify structural equality of the stored canonical form, so
    canonicalization incompleteness can only reduce the hit rate, never
    correctness. Stored placements live in canonical labels and are
    translated through the querying circuit's permutation on the way out,
    so isomorphic relabelings share one entry.

    Counters: [layout.cache.hits] / [.misses] / [.evictions]. *)

type 'tok t

val create : ?capacity:int -> unit -> 'tok t

(** [canon t problem] is [Canon.of_problem problem], memoized on
    [problem]'s interaction structure (program width, pairs, measured
    qubits). The memo holds at most [capacity] forms and is emptied when
    full. Safe to call from several domains. *)
val canon : 'tok t -> Problem.t -> Canon.t

(** [lookup t ~token ~scope canon] returns [(placement, proven_optimal)]
    with the placement translated into the querying circuit's labels, or
    [None]. *)
val lookup : 'tok t -> token:'tok -> scope:string -> Canon.t -> (int array * bool) option

(** [store t ~token ~scope canon ~proven_optimal placement] inserts (no-op
    if an equivalent entry exists), evicting the least recently used
    entry at capacity. *)
val store :
  'tok t -> token:'tok -> scope:string -> Canon.t -> proven_optimal:bool -> int array -> unit

(** [clear t] drops every entry and the canonical-form memo, and zeroes
    the statistics. *)
val clear : 'tok t -> unit

type stats = { hits : int; misses : int; evictions : int; size : int }

val stats : 'tok t -> stats
