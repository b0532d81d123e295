(** A fixed-size domain pool for deterministic data parallelism.

    The pool owns [jobs - 1] worker domains (OCaml 5 [Domain.t]); the
    caller of {!map} is always the [jobs]-th participant, executing tasks
    itself while it waits. Because the submitting domain helps drain its
    own batch, a task may itself call {!map} on the same pool (nested
    fan-out) without risk of deadlock, and a pool of [jobs = 1] degrades
    to plain inline iteration with no synchronization at all.

    Determinism contract: {!map} returns results in input order, and the
    assignment of work to domains never influences the result values —
    callers are responsible for making each task self-contained (e.g. a
    pre-split RNG per task, see {!Mathkit.Rng.split}). Everything built on
    this module (trajectory simulation, experiment sweeps) is bit-for-bit
    identical for every [jobs] value.

    Observability: every map reports its task count to the
    ["parallel.pool.tasks"] counter and pool sizes to the
    ["parallel.pool.jobs"] gauge; when [Obs.Metrics.enable] is on, the
    ["parallel.pool.queue_wait_ns"] histogram records how long helper
    closures sat queued before a worker claimed them and
    ["parallel.pool.busy_ns"] each participant's working time per batch
    (per-domain lanes are visible in Chrome traces via span [tid]s).
    Instrumentation never alters scheduling or results. *)

type t

(** [create ~jobs] spawns a pool with [jobs - 1] worker domains
    ([jobs >= 1]; [jobs = 1] spawns none and runs everything inline). *)
val create : jobs:int -> t

(** Total parallelism of the pool, including the calling domain. *)
val jobs : t -> int

(** [map t f xs] applies [f] to every element, in parallel across the
    pool, and returns the results in input order. If any application
    raises, the whole map still runs to completion and the exception of
    the lowest-indexed failing element is re-raised (deterministic
    regardless of scheduling). *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Array counterpart of {!map}. *)
val map_array : t -> ('a -> 'b) -> 'a array -> 'b array

(** [map_reduce t ~map ~reduce ~init xs] folds the mapped results in
    input order: [reduce (... (reduce init y0) ...) yn]. The fold itself
    runs on the calling domain, so a non-associative [reduce] (e.g. float
    accumulation) still gives the same answer for every pool size. *)
val map_reduce :
  t -> map:('a -> 'b) -> reduce:('acc -> 'b -> 'acc) -> init:'acc -> 'a list -> 'acc

(** [shutdown t] joins the worker domains. Maps on a shut-down pool run
    inline on the caller. Idempotent. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, also on exception. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** {1 The process-wide default pool}

    Library entry points ({!Sim.Runner.simulate}, the experiment harness) fall
    back to a shared lazily-created pool, sized by [-j] flags or
    [Domain.recommended_domain_count ()]. *)

(** The shared pool, created on first use with {!default_jobs} workers. *)
val default : unit -> t

(** Current size the default pool has (or will be created with). *)
val default_jobs : unit -> int

(** [set_default_jobs n] resizes the default pool (shutting down the old
    one if its size differs). This is what [-j N] flags call. *)
val set_default_jobs : int -> unit
