(** A fixed, ordered set of named int counters with typed keys.

    A layer of the simulator declares its counters once, as a schema:
    one {!key} per counter, in the order it reports them. The phantom
    ['k] ties a key to its schema, so reading a network counter out of
    an RPC snapshot, or misspelling a counter, is a compile error, not
    a lookup that fails at run time. Live counters ({!t}) only go up;
    what a layer hands out is a {!snapshot}, a copy that later
    increments do not reach. *)

type 'k schema
type 'k key

type 'k t
(** A live set of counters of one schema, all starting at 0. *)

type 'k snapshot
(** An immutable copy of a live set. *)

val schema : unit -> 'k schema
(** A schema with no counters yet. *)

val key : 'k schema -> string -> 'k key
(** [key s name] appends a counter called [name] to [s]. Declare every
    key before the first {!create} on [s].
    @raise Invalid_argument if [s] already has live counters or a
    counter called [name]. *)

val create : 'k schema -> 'k t

val incr : 'k t -> 'k key -> unit
(** Adds one. Allocates nothing. *)

val snapshot : 'k t -> 'k snapshot
val get : 'k snapshot -> 'k key -> int

val sum : 'k snapshot list -> 'k snapshot
(** Adds the snapshots key by key.
    @raise Invalid_argument on an empty list or on snapshots of
    different schemas. *)

val to_json : 'k snapshot -> Naming.Json.t
(** An object with one [name: value] field per counter, in declaration
    order. *)

val pp : Format.formatter -> 'k snapshot -> unit
(** [name=value] per counter, in declaration order, space-separated on
    one line. *)
