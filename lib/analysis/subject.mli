(** The subject of an analysis: a naming world and the vantage points
    from which it is judged.

    A naming graph is not broken or incoherent in a vacuum — the paper's
    properties are all relative to a resolution rule and to the
    activities doing the resolving. A subject packages the store with
    that frame: the rule, the activities whose occurrences matter, and
    the probe names over which coherence is predicted. *)

type t = private {
  store : Naming.Store.t;
  rule : Naming.Rule.t;
  activities : Naming.Entity.t list;
  probes : Naming.Name.t list;
}

val v :
  ?probes:Naming.Name.t list ->
  rule:Naming.Rule.t ->
  activities:Naming.Entity.t list ->
  Naming.Store.t ->
  t
(** When [probes] is omitted, the subject probes the union, over the
    activities, of the absolute names of length ≤ 3 resolvable from each
    activity's ["/"] binding, de-duplicated in first-seen order — the
    same generic probe set the CLI and the experiments use.
    @raise Invalid_argument on an empty activity list. *)

val occurrences : t -> Naming.Occurrence.t list
(** One [Generated] occurrence per activity, in order. *)

val contexts : t -> (Naming.Entity.t * Naming.Context.t) list
(** Each activity with the context the rule selects for its generated
    occurrence; activities for which the rule selects no context are
    omitted. *)
