(** Experiment E1 — Figure 1: the three sources of names.

    One activity generates a name internally, one receives the same name
    in a message, and one reads it from an object it is embedded in. The
    experiment shows the meta-context (the arguments available to the
    resolution rule) for each source, then demonstrates that under the
    operating-system rule R(activity) all three resolve in the subject's
    context — so coherence depends only on whether the name happens to be
    global — whereas the source-aware rules R(sender)/R(object) recover the
    originator's meaning. *)

type outcome = {
  source : Naming.Occurrence.source;
  rule_label : string;
  result : Naming.Entity.t;
  agrees_with_originator : bool;
}

val measure : unit -> outcome list
(** Pure measurement behind {!run}; the test suite checks it directly. *)

val run : Format.formatter -> unit
