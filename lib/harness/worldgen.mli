(** Seeded generative world builder.

    Scales the hand-written {!Sample} schemes up to millions of
    entities: a template names a topology, a seed fixes every random
    choice, and a size bounds the store. Growth is preferential — each
    new directory or file attaches to an existing directory drawn with a
    zipf-shaped rank distribution, so a few directories accumulate heavy
    fan-out while most stay thin, and path depth spreads the way
    measured file trees do. The same (template, size, seed) triple
    always rebuilds the identical world, bind for bind, so worlds can be
    regenerated instead of shipped, and a codec dump of one is
    byte-stable. *)

type template = [ `Unixlike | `Perprocess | `Federated ]
(** - [`Unixlike]: one system tree seen through two mount namespaces —
      /usr, /lib and /etc are shared entities, each namespace grows a
      private /home — so the coherence degree sits near 3/4.
    - [`Perprocess]: two per-process roots over one store sharing a
      grown /shared subtree, each with a private /local subtree — the
      degree tracks the shared fraction.
    - [`Federated]: one global root over three org subtrees, one
      activity per org with the shared "/" — absolute names are fully
      coherent, the estimator's p → 1 boundary. *)

val templates : string list
(** Parseable template names, in a stable order. *)

val template_of_string : string -> template option
val template_name : template -> string

val build : template -> size:int -> seed:int64 -> Sample.world
(** [build t ~size ~seed] generates a world whose store holds exactly
    [size] entities (directories, files, plus the template's activities
    and context objects). Deterministic: equal arguments yield stores
    with identical codec dumps.
    @raise Invalid_argument when [size < 64]. *)

val of_store : Naming.Store.t -> Sample.world option
(** Rebuilds a measurable world from a bare store — typically one
    decoded from a codec dump — using the {!Schemes.Process_env} label
    convention: each activity labelled [l] is assigned the context
    object labelled [l ^ ".ctx"]. [None] if the store has no
    activities, an activity or its context object is unlabelled or
    missing, or the first activity's context object holds no context.
    The first activity's context becomes [world.ctx]. *)

val sampler :
  ?valid_fraction:float ->
  ?max_depth:int ->
  Sample.world ->
  Dsim.Rng.t Naming.Coherence.sampler
(** A seeded probe source for {!Naming.Coherence.estimate}, matched to
    the builder: with probability [valid_fraction] (default 0.9) a
    probe is an absolute name found by a random descent from the
    world's root (the distribution of {!Workload.Namegen.descend}, with
    each directory's bindings indexed once so a draw costs O(depth)
    even on zipf fan-out), otherwise garbage noise
    ({!Workload.Namegen.noise_one}); [max_depth] (default 8) bounds
    both. Streams split with {!Dsim.Rng.split}, so estimates are
    reproducible from the caller's rng alone. The sampler reads the
    store lazily — do not mutate the world while drawing from it.

    Note the descent weights names by path, not uniformly: the degree
    it estimates is the descent-weighted one. For an estimate of the
    same population {!Naming.Coherence.measure} sweeps, use
    {!uniform_sampler} over {!probes_seq}. *)

val uniform_sampler :
  Naming.Name.t array -> Dsim.Rng.t Naming.Coherence.sampler
(** Uniform draws (with replacement) from a fixed probe population: the
    estimator then targets exactly the degree {!Naming.Coherence.measure}
    computes exhaustively over that population, so its interval can be
    checked against the exact sweep.
    @raise Invalid_argument on an empty population. *)

val probes_seq : ?max_depth:int -> Sample.world -> Naming.Name.t Seq.t
(** The exact-measure counterpart of {!sampler}: "/" followed by every
    absolute name of the world reachable within [max_depth] (default 8)
    atoms of the root, in {!Naming.Graph.all_names} order, for feeding
    {!Naming.Coherence.measure_seq}. Produced lazily, one breadth-first
    level at a time ({!Naming.Graph.names_seq}), so a streaming sweep
    never holds the whole probe list. *)
