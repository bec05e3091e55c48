(** Resolution engines: one semantics, two execution strategies.

    Every resolve consumer (coherence sweeps, workload replays, the
    analyzers, the simulator) goes through an engine:

    - {e compiled} — {!Compiled}: packed int-table dispatch. Every store
      keeps one of its own ({!Compiled.of_store}), created on first use;
      it builds a directory's table the first time a walk steps into
      it and patches the tables a mutation touched, so every caller —
      one-shot batch calls, replays, a replicated cluster — shares one
      engine per store that only ever pays for what was walked.
    - {e interpreted} — {!Resolver}: walk the context objects
      atom-by-atom on every call. No state; the reference semantics and
      the property tests' oracle.

    The two produce identical results on every input (a property test
    holds them to it); they differ only in cost model. Every call site
    takes its engine from {!select} ({!Coherence} alone also accepts an
    explicit one), so the environment variable
    [NAMING_ENGINE=interpreted] re-runs any unchanged workload on the
    reference interpreter. *)

type kind = [ `Interpreted | `Compiled ]

type t = Interpreted of Store.t | Compiled of Compiled.t

val create : kind -> Store.t -> t
(** [`Compiled] is the store's own engine; [`Interpreted] the
    interpreter over the store. *)

val parse_kind : string -> (kind, string) result
(** ["interpreted"] or ["compiled"]; the error message lists the
    accepted names. *)

val env_kind : unit -> kind option
(** The kind requested by [NAMING_ENGINE], or [None] when unset/empty.
    The variable is read once, when the program starts.
    @raise Invalid_argument on an unrecognised value. *)

val of_env : Store.t -> t
(** The store's own compiled engine, unless [NAMING_ENGINE=interpreted]
    asks for the interpreter. Inside a {!Store.read_only} section (where
    other domains may be reading the store) it is the interpreter too.
    @raise Invalid_argument on an unrecognised value. *)

val select : ?engine:t -> Store.t -> t
(** The call-site selector: an explicit [?engine] wins; otherwise
    {!of_env} — the store's own engine, or the interpreter under
    [NAMING_ENGINE=interpreted]. *)

val kind : t -> kind
val label : t -> string
val store : t -> Store.t

(** {1 Resolution} — each equal to its {!Resolver} counterpart *)

val resolve : t -> Context.t -> Name.t -> Entity.t
val resolve_in : t -> Entity.t -> Name.t -> Entity.t

(** {1 Parallel sweeps} *)

val map_sharded : ?jobs:int -> t -> (t -> 'a -> 'b) -> 'a list -> 'b list
(** [map_sharded ?jobs t f xs] is [List.map (f t) xs], the fan-out of
    {!Coherence}'s sweeps over one store ({!Pool.shared} decides the
    path). At [jobs <= 1] that is exactly what runs, on the calling
    domain: [f] receives [t] itself, with the store writable. At
    [jobs > 1] the items are fanned over the shared pool
    ({!Pool.map_local}) — results in input order — with [t]'s store
    frozen ({!Store.read_only}) for the duration. [t] is brought up to
    date on the calling domain first ({!Compiled.refresh}), and each
    participant gets its own shard: the shared interpreter, or a
    {!Compiled.snapshot} that shares [t]'s tables and finishes a walk
    into a table not built yet on the interpreter. Afterwards, on the
    calling domain, [t] builds the tables its shards missed
    ({!Compiled.adopt}), so the next batch finds them. *)
