(** Resolution engines: one semantics, two execution strategies.

    Every resolve consumer (coherence sweeps, workload replays, the
    analyzers, the simulator) goes through an engine:

    - {e interpreted} — {!Resolver}: walk the context objects
      atom-by-atom on every call. No warm-up and no state; the
      reference semantics, and what every one-shot batch call runs.
    - {e compiled} — {!Compiled}: packed int-table dispatch with
      incremental recompilation. Pays a whole-world compile up front,
      so it is the engine a long-lived owner keeps (a replicated
      cluster patches one for its whole life).

    The two produce identical results on every input (a property test
    holds them to it); they differ only in cost model. Call sites take
    [?engine] and fall back to [of_env], so the environment variable
    [NAMING_ENGINE=interpreted|compiled] re-runs any unchanged workload
    under another engine. *)

type kind = [ `Interpreted | `Compiled ]

type t = Interpreted of Store.t | Compiled of Compiled.t

val create : kind -> Store.t -> t

val parse_kind : string -> (kind, string) result
(** ["interpreted"] or ["compiled"]; the error message lists the
    accepted names. *)

val env_kind : unit -> kind option
(** The kind requested by [NAMING_ENGINE], or [None] when unset/empty.
    @raise Invalid_argument on an unrecognised value. *)

val of_env : ?default:kind -> Store.t -> t
(** [of_env ?default store] reads [NAMING_ENGINE]; unset or empty falls
    back to [default] (itself defaulting to [`Interpreted]).
    @raise Invalid_argument on an unrecognised value. *)

val select : ?engine:t -> Store.t -> t
(** The call-site selector: an explicit [?engine] wins; otherwise
    [of_env] — [NAMING_ENGINE], else the interpreter. *)

val kind : t -> kind
val label : t -> string
val store : t -> Store.t

(** {1 Resolution} — each equal to its {!Resolver} counterpart *)

val resolve : t -> Context.t -> Name.t -> Entity.t
val resolve_in : t -> Entity.t -> Name.t -> Entity.t

val resolve_trace_into :
  Resolver.buffer -> t -> Store.t -> Context.t -> Name.t -> Entity.t
(** Same steps as {!Resolver.resolve_trace_into}. [Interpreted] walks
    the store; [Compiled] reconstructs the identical trace from its
    tables. *)

(** {1 Parallel sweeps} *)

val prepare : t -> unit
(** Bring the engine up to date with its store ({!Compiled.refresh});
    call before {!Store.read_only} fan-out so worker shards never patch
    concurrently. No-op for the interpreter. *)

val shard : t -> t
(** A per-domain engine over the same store: a {!Compiled.snapshot};
    [Interpreted] is stateless and shared. *)

val compiled : t -> Compiled.t option
