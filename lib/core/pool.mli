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
    {!Store.read_only}, which the parallel paths of {!map_frozen} and
    {!Engine.map_sharded} wrap their batches in — and must not share a
    {!Compiled} engine between tasks; {!Engine.map_sharded} hands each
    participant of {!map_local} a {!Compiled.snapshot} (shards share
    the engine's tables read-only and own only their miss list; a
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

val default_jobs : unit -> int
(** The [NAMING_JOBS] environment variable when set to a positive
    integer, else [1]. This is what the fan-out entry points fall back
    to when [?jobs] is omitted and what the CLI tools default their
    [--jobs] to — so parallelism stays opt-in per invocation, but one
    environment variable turns it on everywhere at once (CI runs the
    whole test suite a second time under [NAMING_JOBS=4]). *)

(** {1 Fan-out entry points}

    Every batch API fans its sweep out through {!map}, {!map_frozen} or
    {!Engine.map_sharded}, and all three decide between the sequential
    and the parallel path by {!shared}. An omitted [?jobs] means
    {!default_jobs}[ ()]. At [jobs <= 1] each is [List.map] on the
    calling domain, with no store frozen and no shard taken. At
    [jobs > 1] the sweep runs on the shared pool, across at most [jobs]
    participants even once an earlier, wider batch has grown the pool
    past that. *)

val shared : ?jobs:int -> unit -> t option
(** The one sequential-or-parallel decision: [None] at [jobs <= 1]
    (run [List.map] on the caller), else the process-wide pool —
    created on first use, grown to at least [jobs] and joined at
    exit. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Independent items: [map f xs] applies [f] to every element,
    returning results in list order. The items must not share a store
    that [f] mutates. *)

val map_frozen :
  ?jobs:int -> store:('a -> Store.t) -> ('a -> 'b) -> 'a list -> 'b list
(** One store per item: {!map}, except that on the parallel path each
    task runs with its item's store frozen ({!Store.read_only}). The
    stores must be distinct. *)

(** {1 Explicit pools} *)

val map_local :
  ?jobs:int ->
  t ->
  local:(unit -> 'w) ->
  ('w -> 'a -> 'b) ->
  'a list ->
  'b list * 'w list
(** [map_local pool ~local f xs] applies [f] to every element, in
    parallel across at most [min jobs (List.length xs)] participants
    (default: the pool size), with per-participant state: each
    participating domain calls [local ()] once (lazily, after claiming
    its first task) and its tasks receive that value — the mechanism
    behind per-domain engine shards. Returns the results in list order
    and the participant states (in no particular order) so the caller
    can merge them. With one participant this is
    [let w = local () in (List.map (f w) xs, [ w ])]. *)
