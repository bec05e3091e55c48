(** The scheme × source-of-name coherence matrix (experiment E10).

    For a world (a built scheme with its activities, probe names, and
    resolution rule) this module measures the degree of coherence for each
    of the paper's three sources of names — the quantitative rendering of
    the qualitative comparison that section 5 of the paper carries out in
    prose. *)

type world = {
  label : string;
  store : Naming.Store.t;
  rule : Naming.Rule.t;
  activities : Naming.Entity.t list;  (** the scope of the measurement *)
  probes : Naming.Name.t list;  (** names generated/exchanged *)
  embedded : (Naming.Entity.t * Naming.Name.t list) list;
      (** objects containing embedded names, with those names *)
  equiv : (Naming.Entity.t -> Naming.Entity.t -> bool) option;
      (** replica equivalence, when the world has replicated objects *)
}

type row = {
  world : string;
  generated : float;
  received : float;
  embedded_deg : float option;  (** [None] when the world embeds nothing *)
}

val generated_degree : ?jobs:int -> world -> float
(** Coherence across all activities for names each generates itself.
    Each degree resolves through one {!Naming.Engine}
    ({!Naming.Engine.select}: the store's own compiled engine, unless
    [NAMING_ENGINE] asks for the interpreter). *)

val received_degree : ?jobs:int -> world -> float
(** Mean coherence over all ordered (sender, receiver) pairs for all
    probes sent from one to the other. *)

val embedded_degree : ?jobs:int -> world -> float option
(** Coherence across all activities reading each embedded source. *)

val measure : ?jobs:int -> world -> row
(** Measure all three degrees of one world. With [jobs > 1] each degree's
    sweep fans its probe/event units across the shared domain pool (store
    frozen for the duration); the row is structurally identical to the
    sequential one. *)

val measure_all : ?jobs:int -> world list -> row list
(** Measure several worlds, in order. Worlds are independent (each has
    its own store), so with [jobs > 1] the fan-out is one task per world
    — coarser and cheaper than parallelising inside each world. *)

val render_rows : row list -> string
