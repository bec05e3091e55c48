(** The resolution compiler: a naming world packed into flat int tables.

    Each context object becomes an open-addressed hash table of interned
    atom ids in one int arena, so that resolving a compound name from a
    context object is one integer table probe per path component — no
    Context map descent, no Store hashtable lookup, and no allocation on
    the resolve path. A name resolved in a context value ({!resolve})
    looks its first atom up in that value and walks the rest through the
    tables. A table is built the first time a walk steps into its
    directory, so a caller pays only for the part of the world it
    visits. The engine tracks the store's mutation clock ({!Store.tick}
    / {!Store.touched_since}) and patches {e incrementally}: a bind
    rebuilds exactly the table of the directory it touched, not the
    world.

    Results are defined to be identical to {!Resolver}'s on every input:
    the compiled engine is an implementation of the paper's section-2
    semantics, not a variant of them. *)

type t

val of_store : Store.t -> t
(** The store's own engine, created (with no tables yet) on the first
    call and kept in the store's {!Store.engine} slot; every later call
    returns the same engine. This is {!Engine.select}'s default. *)

val create : Store.t -> t
(** A fresh engine with no tables, not kept in the store: what
    {!of_store} creates on its first call. *)

val compile : Store.t -> t
(** {!create} with every context object's table forced up front — the
    cost of the whole world's tables, paid at once. Store mutations are
    folded in by the next resolve (or eagerly by {!refresh}) exactly as
    for any engine. *)

val store : t -> Store.t

val refresh : t -> unit
(** Bring the tables up to date with the store: rebuilds only the tables
    of entities reported by {!Store.touched_since} since the last
    refresh. A no-op when the store tick is unchanged. Call this on the
    owning domain before taking {!snapshot}s for parallel workers.
    @raise Invalid_argument on a shard whose store has changed. *)

val snapshot : t -> t
(** A shard for a parallel worker, O(1) to take: it shares the arena
    and id tables with [t] (safe under {!Store.read_only}, where no
    patching can occur) and owns only its list of missed tables, so
    concurrent resolves in sibling domains never contend. A shard never
    writes the shared tables: a walk into a context object whose table
    is not built yet finishes on the interpreter, and the shard
    remembers the object (once) for {!adopt}. It does not refresh [t].
    Per-run counters start at zero. *)

val adopt : t -> t list -> unit
(** [adopt t shards], on [t]'s domain after the batch, builds the tables
    the shards walked into without finding. *)

val resolve : t -> Context.t -> Name.t -> Entity.t
(** [resolve t c n] — same result as [Resolver.resolve (store t) c n]:
    the first atom through the context value [c], every further step
    through the packed tables. *)

val resolve_in : t -> Entity.t -> Name.t -> Entity.t
(** [resolve_in t o n] — same result as
    [Resolver.resolve_in (store t) o n]. *)

(** {1 Statistics} *)

type stats = {
  tables : int;  (** context objects in the store *)
  nodes : int;  (** of those, the ones with a built table *)
  slots : int;  (** distinct entities the tables know *)
  table_cells : int;  (** total open-addressing cells across nodes *)
  bindings : int;  (** occupied cells (= defined bindings) *)
  arena_words : int;  (** arena in use, abandoned regions included *)
  node_builds : int;  (** per-table builds, first use + patches *)
  patches : int;  (** incremental refresh rounds that found changes *)
  patched_nodes : int;  (** touched entities processed by those rounds *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
