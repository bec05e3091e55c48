(** Coherence in naming: definitions and metrics.

    A name [n] is {e coherent} across a set of occurrences when it denotes
    the same defined entity under each of them (paper, section 4). {e Weak}
    coherence replaces entity equality with replica equivalence (section
    5). The {e degree} of coherence of a scheme is our quantification of
    the paper's qualitative claims: the fraction of probe names that are
    coherent across the given occurrences. *)

type verdict =
  | Coherent of Entity.t
      (** Every occurrence resolves the name to this defined entity. *)
  | Weakly_coherent of Entity.t list
      (** Occurrences resolve to distinct but replica-equivalent entities
          (one representative per occurrence, in occurrence order). Only
          produced when an equivalence is supplied. *)
  | Incoherent of (Occurrence.t * Entity.t) * (Occurrence.t * Entity.t)
      (** Two witnessing occurrences with conflicting resolutions (either
          two different defined entities, or defined vs ⊥). *)
  | Vacuous  (** The name is undefined under every occurrence. *)

val check :
  ?equiv:(Entity.t -> Entity.t -> bool) ->
  ?engine:Engine.t ->
  Store.t ->
  Rule.t ->
  Occurrence.t list ->
  Name.t ->
  verdict
(** [check store rule occs n] resolves [n] under every occurrence and
    classifies the outcome. With [equiv], resolutions that are equivalent
    but unequal yield [Weakly_coherent]. Resolutions go through an
    {!Engine}, chosen by {!Engine.select}: an explicit [?engine] wins,
    else the store's own compiled engine (the interpreter under
    [NAMING_ENGINE=interpreted]). The batch entry points below select
    once and share that engine across every (occurrence, probe) pair;
    since the store keeps its engine, repeated calls on one store reuse
    the tables earlier calls built. Every engine produces the same
    verdicts. [check] and every batch entry point classify a probe by
    one routine, so a tally counts exactly the verdicts [check] would
    return.
    @raise Invalid_argument on an empty occurrence list. *)

val is_coherent :
  ?equiv:(Entity.t -> Entity.t -> bool) ->
  ?engine:Engine.t ->
  Store.t ->
  Rule.t ->
  Occurrence.t list ->
  Name.t ->
  bool
(** True on [Coherent _] and [Weakly_coherent _]. *)

type report = {
  probes : int;  (** number of probe names *)
  coherent : int;  (** strictly coherent *)
  weakly_coherent : int;  (** coherent only up to replica equivalence *)
  incoherent : int;
  vacuous : int;  (** undefined everywhere *)
}

val degree : report -> float
(** [(coherent + weakly_coherent) / (probes - vacuous)]; 1.0 when every
    probe is vacuous (coherence over an empty set of meaningful probes is
    trivially full). *)

val strict_degree : report -> float
(** [coherent / (probes - vacuous)]. *)

val measure :
  ?equiv:(Entity.t -> Entity.t -> bool) ->
  ?engine:Engine.t ->
  ?jobs:int ->
  Store.t ->
  Rule.t ->
  Occurrence.t list ->
  Name.t list ->
  report
(** Every batch entry point ({!measure}, {!measure_seq},
    {!measure_units}, {!estimate}, {!classify}) runs one sweep, which
    takes [?jobs] and fans its probes out through
    {!Engine.map_sharded}: with [jobs > 1] the probes are swept
    in parallel on a {!Pool} of that many domains — the store frozen
    ({!Store.read_only}) for the duration, one engine shard per worker
    (the shared interpreter, or a {!Compiled.snapshot} that shares the
    caller's tables). Results are returned in probe order and are
    structurally equal to the sequential ones; [jobs = 1] (or omitting
    it, with [NAMING_JOBS] unset) runs on the caller with the selected
    engine itself.

    The rule selects a context from the circumstance of an occurrence,
    never from the name (paper, section 3), so a batch with fixed
    occurrences ({!measure}, a {!measure_seq} chunk, an {!estimate}
    batch, {!classify}) selects each occurrence's context once, on the
    calling domain, and resolves every probe of the batch in it. A rule
    must therefore be a function of the store and the occurrence: one
    that answered differently per call would see one call per
    occurrence per batch, not one per probe. The tallies count verdict
    kinds in place and build no per-probe verdict. *)

val measure_seq :
  ?equiv:(Entity.t -> Entity.t -> bool) ->
  ?engine:Engine.t ->
  ?jobs:int ->
  Store.t ->
  Rule.t ->
  Occurrence.t list ->
  Name.t Seq.t ->
  report
(** {!measure} over a lazy probe sequence: probes are materialised one
    fixed-size chunk at a time (sequentially, or fanned over the pool
    chunk by chunk) and folded into the report immediately, so peak
    residency is one chunk — an exact sweep over 10^6 streamed probes
    never allocates an O(probes) verdict list. The report is identical
    to [measure] over the forced sequence, for every engine and every
    [jobs]. *)

val measure_units :
  ?equiv:(Entity.t -> Entity.t -> bool) ->
  ?engine:Engine.t ->
  ?jobs:int ->
  Store.t ->
  Rule.t ->
  (Occurrence.t list * Name.t) list ->
  report
(** {!measure} over units that each bring their own occurrence set: one
    verdict per [(occs, name)] unit, [check store rule occs name], its
    contexts selected per unit. This
    is the tally behind the exchange fractions (the sender's and the
    receiver's occurrence per event) and the embedded-name degree (every
    reader of one source document per name). Same sweep, same [?jobs]
    and engine contract, same report at every [jobs]. *)

type estimate = {
  degree : float;  (** point estimate of {!degree} *)
  strict_degree : float;  (** point estimate of {!strict_degree} *)
  ci_low : float;  (** Wilson interval lower bound on [degree] *)
  ci_high : float;  (** Wilson interval upper bound on [degree] *)
  samples : int;  (** probes drawn (including vacuous ones) *)
}

type 'rng sampler = {
  split : 'rng -> 'rng;
      (** A child stream, deterministic from the parent's state; the
          parent advances (e.g. [Dsim.Rng.split]). *)
  draw : 'rng -> Name.t;  (** The next probe from a stream. *)
}
(** A seeded probe source. The rng type is abstract here so the core
    library stays independent of any particular generator; the harness
    instantiates it with [Dsim.Rng.t]. *)

val estimate :
  ?equiv:(Entity.t -> Entity.t -> bool) ->
  ?engine:Engine.t ->
  ?jobs:int ->
  ?confidence:float ->
  ?epsilon:float ->
  ?max_samples:int ->
  rng:'rng ->
  Store.t ->
  Rule.t ->
  Occurrence.t list ->
  'rng sampler ->
  estimate
(** Sampling-based coherence estimation: draws probes from the sampler
    and classifies them exactly like {!measure} until the Wilson score
    interval at [confidence] (default 0.95) has half-width at most
    [epsilon] (default 0.01), or [max_samples] (default 100_000) probes
    have been drawn. [degree] is the observed success fraction over
    meaningful (non-vacuous) samples — the quantity exact [measure]
    computes exhaustively — and [\[ci_low, ci_high\]] covers the true
    degree with the requested confidence.

    Probes are drawn in fixed-size batches, each batch from a child
    stream obtained with [sampler.split]: the drawn sequence depends
    only on the rng state and the batch index, never on [jobs] or the
    engine, so estimates are byte-identical across jobs 1 vs 4 and
    across the interpreted and compiled engines. When every drawn
    probe is vacuous, [degree] is 1.0 (the {!degree} convention) and
    the interval stays [\[0, 1\]].
    @raise Invalid_argument when [confidence] is outside (0, 1),
    [epsilon] is not positive, or [max_samples < 1]. *)

val pp_estimate : Format.formatter -> estimate -> unit

val classify :
  ?equiv:(Entity.t -> Entity.t -> bool) ->
  ?engine:Engine.t ->
  ?jobs:int ->
  Store.t ->
  Rule.t ->
  Occurrence.t list ->
  Name.t list ->
  (Name.t * verdict) list
(** Per-probe detail, in probe order. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit
