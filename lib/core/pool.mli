(** A fixed-size domain pool for sweep-shaped parallelism.

    The quantitative payload of the paper — degree-of-coherence
    measurements across schemes, activities and sources of names — is a
    family of embarrassingly parallel sweeps over independent units of
    work (one verdict per (occurrence set, probe) pair, one row per
    world, one report per plan). This pool runs such sweeps across
    domains while keeping the API deterministic and exception-safe:

    - {e Deterministic results}: [map] and [map_local] return results in
      task order, whatever order the workers finished in. A parallel
      sweep is observationally equal to the sequential one.
    - {e Deterministic failures}: if tasks raise, the exception of the
      {e lowest-indexed} failing task is re-raised on the calling domain
      (with its backtrace) after the batch has drained — independent of
      scheduling. The pool stays usable afterwards.
    - {e Caller participation}: the calling domain executes tasks too,
      so a pool sized [jobs] applies [jobs]-way parallelism with
      [jobs - 1] worker domains, and a batch can never deadlock waiting
      for busy workers (the caller alone will drain it).

    Worker domains are long-lived: they block on a condition variable
    between batches, so per-sweep overhead is a few mutex operations,
    not a domain spawn.

    Domain-safety contract for tasks (see doc/PARALLEL.md): tasks must
    treat every {!Store} they can reach as read-only — enforced by
    {!Store.read_only}, which the parallel batch entry points wrap their
    sweeps in — and must not share a {!Compiled} engine between tasks;
    shard it via {!Engine.map_sharded}, which hands each participant a
    {!Compiled.snapshot} through {!map_local} (shards share
    the engine's tables read-only and own only their entry ring; a
    participant creates its state only after claiming a task, so none
    is created after the batch returns). Interning new
    atoms ({!Name.atom}, {!Name.of_string}) is safe anywhere: the
    symbol table's writes are mutex-protected, its reads lock-free. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains. [jobs] is the total
    parallelism including the calling domain; [create ~jobs:1] spawns
    nothing and every batch runs sequentially.
    @raise Invalid_argument when [jobs < 1]. *)

val jobs : t -> int
(** The pool's total parallelism (workers + the calling domain). *)

val shutdown : t -> unit
(** Joins the worker domains. Call only when no batch is in flight;
    further batches on the pool run sequentially on the caller. *)

val available_parallelism : unit -> int
(** What the hardware offers: {!Domain.recommended_domain_count}. *)

val default_jobs : unit -> int
(** The [NAMING_JOBS] environment variable when set to a positive
    integer, else [1]. This is what batch APIs fall back to when
    [?jobs] is omitted ({!get}) and what the CLI tools default their
    [--jobs] to — so parallelism stays opt-in per invocation, but one
    environment variable turns it on everywhere at once (CI runs the
    whole test suite a second time under [NAMING_JOBS=4]). *)

val get : ?jobs:int -> unit -> t option
(** Resolves a [?jobs] request against a lazily-created shared pool.
    An omitted [?jobs] means {!default_jobs}[ ()]; an effective request
    [<= 1] means "run sequentially" ([None] is returned); a request
    [> 1] returns the shared pool, grown to at least that size. The
    shared pool is created on first use and joined at exit. *)

val map : ?jobs:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element, in parallel across at
    most [min jobs (List.length xs)] participants (default: the pool
    size), returning results in list order. With one participant this
    is exactly [List.map f xs]. *)

val map_local :
  ?jobs:int ->
  t ->
  local:(unit -> 'w) ->
  ('w -> 'a -> 'b) ->
  'a list ->
  'b list * 'w list
(** [map_local pool ~local f xs] is {!map} with per-participant state:
    each participating domain calls [local ()] once (lazily, before its
    first task) and its tasks receive that value — the mechanism behind
    per-domain engine shards. Returns the results in list order and the
    participant states (in no particular order) so the caller can merge
    them. Sequentially this is
    [let w = local () in (List.map (f w) xs, [ w ])]. *)
