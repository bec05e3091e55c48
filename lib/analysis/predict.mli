(** Static coherence prediction.

    [Coherence.check] observes incoherence dynamically: it performs the
    resolutions and compares the results. This module predicts the same
    verdict from the naming graph alone, the way a static analyzer
    would: it extracts the context each occurrence's rule selects,
    walks the resolution {e traces} through the graph, and classifies
    the probe by comparing the paths — without consulting the dynamic
    checker. The classification is three-valued: a probe is
    {e provably} coherent or incoherent when the traces decide it
    within the analysis budget, and [Unknown] otherwise. Soundness —
    a provable verdict never contradicts [Coherence.check] on the same
    snapshot — is the analyzer's central invariant, enforced by
    {!agrees} and a property test.

    Two honest limitations produce [Unknown]: the step budget ([fuel],
    the analyzer's analogue of a widening threshold), and the absence
    of a replica-equivalence model — a probe we prove incoherent may
    still be {e weakly} coherent under an equivalence the analyzer does
    not know (so {!agrees} accepts [Weakly_coherent] there). *)

type outcome =
  | Coherent of Naming.Entity.t
      (** Every occurrence's trace reaches this defined entity. *)
  | Incoherent of
      (Naming.Occurrence.t * Naming.Entity.t)
      * (Naming.Occurrence.t * Naming.Entity.t)
      (** Two witnessing occurrences whose traces end differently
          (mirrors [Coherence.Incoherent]). *)
  | Vacuous  (** Every trace fails: the probe denotes ⊥ everywhere. *)
  | Unknown of string  (** Undecided; the string says why. *)

type evidence =
  | Same_context
      (** All occurrences resolve in equal context values, so the
          traces are necessarily identical — one walk decides. *)
  | Traces_compared of { converge_at : int option }
      (** Full trace comparison. [converge_at = Some k]: the traces
          join at step [k] (0-based) and share the rest of the path —
          the paper's shared-subgraph argument (§6). [None]: they never
          join. *)
  | Budget_exceeded  (** The probe was longer than the fuel. *)

type t = {
  outcome : outcome;
  evidence : evidence;
  results :
    (Naming.Occurrence.t * Naming.Entity.t * Naming.Resolver.trace) list;
      (** Per-occurrence endpoint and path ([[]] under [Budget_exceeded]
          or when the rule selects no context). *)
}

val default_fuel : int
(** 64 resolution steps. *)

val predict :
  ?fuel:int ->
  Naming.Store.t ->
  Naming.Rule.t ->
  Naming.Occurrence.t list ->
  Naming.Name.t ->
  t
(** Traces come from {!Naming.Resolver.resolve_trace}, walking the
    store itself, so predictions do not depend on the engine.
    @raise Invalid_argument on an empty occurrence list. *)

val agrees : t -> Naming.Coherence.verdict -> bool
(** Soundness relation: [Unknown] agrees with everything; [Coherent e]
    with [Coherent e] and with [Weakly_coherent]; [Incoherent] with
    [Incoherent] and with [Weakly_coherent] (see above); [Vacuous] with
    [Vacuous]. *)

val outcome_to_string : outcome -> string
val pp : Naming.Store.t -> Format.formatter -> t -> unit
