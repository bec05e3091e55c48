(** Serialisation of stores.

    A textual, line-oriented, versioned format for persisting and
    exchanging naming worlds — useful for dumping a scheme's state from
    the CLI and for moving worlds between runs. Strings (labels, atoms,
    file data) are escaped with OCaml lexical conventions, so arbitrary
    content round-trips.

    Entity identifiers are preserved: a store deserialised from a dump
    uses the same [a<i>]/[o<i>] ids, so names, traces and replica tables
    recorded against the original remain meaningful. *)

val to_string : Store.t -> string

val encode_to_channel : Store.t -> out_channel -> unit
(** Streams the dump to a channel in bounded chunks (one internal
    buffer, flushed every ~64 KiB): the bytes written are exactly
    [to_string store], but a million-entity world is encoded without
    ever materialising the multi-megabyte dump string. *)

exception Parse_error of string
(** Carries a line number and message. *)

type error = { line : int; message : string }
(** A parse failure with its position: [line] is 1-based; line 0 means
    the failure is not attributable to a single line. *)

val of_string_result : string -> (Store.t, error) result
(** Total decoder: never raises, whatever the input — random bytes,
    truncated dumps, or corrupted valid dumps all return [Error] with
    the position of the first problem. Entity lines must arrive in
    dense id order (0, 1, 2, …), which is exactly what {!to_string} and
    {!encode_to_channel} emit, so each entity is created the moment its
    line is read; an entity line out of that order is an error at its
    line. Labels and binds may reference entities not yet created; they
    are applied at end of input. *)

val of_string : string -> Store.t
(** [of_string_result] with the error rendered into an exception.
    @raise Parse_error on malformed input, unknown version, or dangling
    entity references. *)

val decode_from_channel : in_channel -> (Store.t, error) result
(** {!of_string_result} over the channel's lines, read one at a time in
    one constant-resident pass that never materialises the dump text:
    the same line language, the same errors at the same positions. *)

val roundtrip_equal : Store.t -> Store.t -> bool
(** Structural equality of two stores: same entities in the same order,
    same labels, same object states. (Not exposed by {!Store} itself
    because ordinary code should never need it.) *)
