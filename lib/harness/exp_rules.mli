(** Experiment E2 — Figure 2: coherence as a function of the resolution
    rule, swept over the fraction of globally-bound probe names.

    Two activities with distinct contexts share a subtree attached under a
    common name (those names are "global" in the paper's sense: they
    denote the same entity in both contexts); the remaining probe names
    are bound in both contexts but to different entities. For a fraction g
    of global probes the paper predicts: R(receiver) and R(activity) give
    coherence exactly for the global names (degree g), while R(sender)
    and R(object) give full coherence (degree 1) regardless of g. *)

type point = {
  global_fraction : float;
  received_receiver : float;  (** Fig 2a, R(receiver) *)
  received_sender : float;  (** Fig 2a, R(sender) *)
  embedded_activity : float;  (** Fig 2b, R(activity) *)
  embedded_object : float;  (** Fig 2b, R(object) *)
}

val sweep : unit -> point list
(** One point per global fraction 0, 1/4, 1/2, 3/4, 1. *)

val run : Format.formatter -> unit
