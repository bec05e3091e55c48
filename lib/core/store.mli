(** The global state σ : E → S.

    A store allocates entities and records their states. An object whose
    state is a context is a {e context object} (e.g. a file directory); an
    object whose state is data is a plain object (e.g. a file). The store is
    the single mutable structure of the core model; resolving a compound
    name reads the states of the context objects along the resolution path
    (paper, section 2). *)

type obj_state =
  | Context of Context.t  (** the object is a context object *)
  | Data of string  (** an uninterpreted payload, e.g. file contents *)

type t

val create : unit -> t

val create_object : ?label:string -> ?state:obj_state -> t -> Entity.t
(** Allocates a fresh object. Default state is [Data ""]. The optional
    [label] is purely diagnostic. *)

val create_context_object : ?label:string -> ?ctx:Context.t -> t -> Entity.t
(** Allocates a fresh context object (default: the empty context). *)

val create_activity : ?label:string -> t -> Entity.t

val exists : t -> Entity.t -> bool

val obj_state : t -> Entity.t -> obj_state option
(** [None] for activities, the undefined entity, and unknown entities. *)

val set_obj_state : t -> Entity.t -> obj_state -> unit
(** @raise Invalid_argument if the entity is not an object of this store. *)

val context_of : t -> Entity.t -> Context.t option
(** The state of a context object; [None] for anything else. *)

val is_context_object : t -> Entity.t -> bool

val data_of : t -> Entity.t -> string option

val set_context : t -> Entity.t -> Context.t -> unit
(** @raise Invalid_argument as {!set_obj_state}. *)

val bind : t -> dir:Entity.t -> Name.atom -> Entity.t -> unit
(** Adds a binding inside the context object [dir].
    @raise Invalid_argument if [dir] is not a context object. *)

val unbind : t -> dir:Entity.t -> Name.atom -> unit
(** @raise Invalid_argument if [dir] is not a context object. *)

val lookup : t -> dir:Entity.t -> Name.atom -> Entity.t
(** [Entity.undefined] when [dir] is not a context object or the atom is
    unbound — matching the paper's totalised semantics. *)

val label : t -> Entity.t -> string option
val set_label : t -> Entity.t -> string -> unit

val pp_entity : t -> Format.formatter -> Entity.t -> unit
(** Prints the label when one is set, the raw id otherwise. *)

val activities : t -> Entity.t list
(** In allocation order. *)

val objects : t -> Entity.t list
(** In allocation order. *)

val context_objects : t -> Entity.t list
val cardinal : t -> int

val id_bound : t -> int
(** Entity ids are dense and shared by objects and activities: every
    entity this store allocated has an id below [id_bound t], so
    id-indexed arrays of that length cover the whole store. *)

val version : t -> int
(** A counter bumped by every object-state mutation ({!set_obj_state},
    {!bind}, {!unbind}, {!set_context}, {!restore}) and by entity
    allocation. If the version is unchanged, every past resolution still
    holds. For per-entity tracking use {!generation}. *)

val tick : t -> int
(** Alias of {!version}: the monotonic global mutation clock. *)

val tick_cell : t -> int ref
(** The clock itself. Resolution engines hold the cell and compare
    [!(cell)] against their compiled generation on every resolve; the
    cell lets that staleness poll inline to two loads instead of a
    cross-module call. Holders must treat the cell as read-only. *)

val generation : t -> Entity.t -> int
(** The global tick at which this entity's state last changed (object
    allocation counts as a change), or [0] if it never has. A resolution
    that read only entities whose generations are unchanged is still
    valid. *)

val touched_since : t -> int -> Entity.t list
(** [touched_since t since] lists the entities whose state changed after
    global tick [since] (each entity once, most recent changes last).
    Backed by a bounded journal of recent changes: the journal grows to
    8192 entries, then is truncated to its 2048 newest, so it always
    covers at least the last 2048 change ticks. Asking about a tick at
    or below the truncation floor falls back to a scan of the
    generation table — still complete (every touched entity is listed,
    never any untouched one), but unordered and O(entities in the
    store). Incremental consumers ({!Compiled}) only rely on
    completeness, so overflow costs time, not correctness. *)

(** {1 The store's own engine} *)

type engine = ..
(** A slot for the resolution engine the store keeps for itself
    ({!Engine.select}'s default: {!Compiled} extends this type). The
    store never looks inside it; setting it is not a mutation (no tick,
    allowed in a {!read_only} section). *)

val engine : t -> engine option
val set_engine : t -> engine -> unit

val read_only : t -> (unit -> 'a) -> 'a
(** [read_only t f] runs [f] with the store frozen: any mutation
    ({!bind}, {!set_obj_state}, {!set_label}, entity allocation,
    {!restore}) raises [Invalid_argument] until [f] returns. This is the
    write barrier of the parallel sweeps: {!Pool} batches freeze every
    store their tasks read, so a task (or the coordinating domain) that
    tries to mutate shared state mid-sweep fails loudly instead of
    racing. Sections nest; the barrier is always enforced. *)

val is_read_only : t -> bool
(** True inside a {!read_only} section. *)

val snapshot : t -> (Entity.t * obj_state) list
(** The states of all objects, for later {!restore}. *)

val restore : t -> (Entity.t * obj_state) list -> unit
(** Restores object states saved by {!snapshot}. Entities allocated after
    the snapshot keep their current state. *)

val pp : Format.formatter -> t -> unit
(** A diagnostic dump of the whole store. *)
