(** Name-exchange workloads.

    Names are frequently exchanged between activities — between parent and
    child, and between client and server (paper, section 4, case 2). An
    exchange event is "sender tells receiver about name n"; coherence for
    the event means the name denotes the same entity for the sender (who
    generated it) and for the receiver (who got it in a message). *)

type event = {
  sender : Naming.Entity.t;
  receiver : Naming.Entity.t;
  name : Naming.Name.t;
}

val random_events :
  rng:Dsim.Rng.t ->
  activities:Naming.Entity.t list ->
  probes:Naming.Name.t list ->
  n:int ->
  event list
(** Uniform sender ≠ receiver pairs and uniform probe names.
    @raise Invalid_argument with fewer than two activities or no
    probes. *)

val all_pairs :
  activities:Naming.Entity.t list -> probes:Naming.Name.t list -> event list
(** The exhaustive workload: every ordered pair × every probe. *)

val occurrences : event -> Naming.Occurrence.t list
(** [\[Generated(sender); Received(sender → receiver)\]] — the two
    circumstances whose agreement defines coherence of the exchange. *)

val coherent_fraction :
  ?equiv:(Naming.Entity.t -> Naming.Entity.t -> bool) ->
  ?jobs:int ->
  Naming.Store.t ->
  Naming.Rule.t ->
  event list ->
  float
(** Fraction of non-vacuous events that are coherent under the rule:
    the {!Naming.Coherence.degree} of {!Naming.Coherence.measure_units}
    over one [(occurrences ev, ev.name)] unit per event, through the
    store's own engine; [?jobs] means what it means there, and the
    fraction is identical at every [jobs]. *)

val run_over_network :
  engine:Dsim.Engine.t ->
  actor_of:(Naming.Entity.t -> Naming.Name.t Dsim.Actor.t) ->
  event list ->
  (Naming.Entity.t * Naming.Entity.t * Naming.Name.t) list
(** Actually ships each event's name from [actor_of sender] to
    [actor_of receiver] through the simulated network those actors live
    on, runs [engine] until it is idle, and returns the
    [(sender, receiver, name)] triples that were delivered (drops and
    partitions reduce the result). Senders are identified by reverse
    lookup of the source actor's address. *)
