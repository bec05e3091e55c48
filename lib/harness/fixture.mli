(** Shared experiment fixtures.

    The two-machine world used by E2 and the rule ablations: two
    identically-shaped private trees (every probe name is bound on both
    sides, to different entities) plus one shared tree attached under a
    common atom (names through it are global). The probe mix between the
    two pools realises the swept "fraction of global names". *)

type two_machine = {
  store : Naming.Store.t;
  assignment : Naming.Rule.Assignment.t;
  a1 : Naming.Entity.t;  (** an activity rooted at machine 1 *)
  a2 : Naming.Entity.t;  (** an activity rooted at machine 2 *)
  doc : Naming.Entity.t;  (** a document authored by [a1] *)
  global_probes : Naming.Name.t list;  (** >= 50 names through the shared tree *)
  local_probes : Naming.Name.t list;  (** >= 50 names private to each machine *)
}

val two_machine_world : unit -> two_machine

val probes : two_machine -> global_fraction:float -> n:int -> Naming.Name.t list
(** A deterministic [n]-probe mix with the requested fraction of global
    names (rounded). *)

(** {1 Metrics shared by the experiments} *)

val fraction_equal : (Naming.Entity.t * Naming.Entity.t) list -> float
(** The fraction of [(intended, got)] pairs where [got] is the defined
    entity [intended]; 1.0 on no pairs. *)

val mean : float list -> float
(** The arithmetic mean; 1.0 on the empty list. *)

val degree :
  ?equiv:(Naming.Entity.t -> Naming.Entity.t -> bool) ->
  Naming.Store.t ->
  Naming.Rule.t ->
  Naming.Occurrence.t list ->
  Naming.Name.t list ->
  float
(** {!Naming.Coherence.degree} of {!Naming.Coherence.measure}. *)
