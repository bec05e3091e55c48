(** Contexts: functions from names to entities.

    A context is a total function [N → E]; we represent it by a finite map,
    every unmapped atom being sent to the undefined entity ⊥ (paper,
    section 2). Contexts are immutable values; mutable context {e objects}
    live in a {!Store}. *)

type t

val empty : t

val of_bindings : (Name.atom * Entity.t) list -> t
(** Later bindings for the same atom override earlier ones. *)

val lookup : t -> Name.atom -> Entity.t
(** Total: unmapped atoms resolve to {!Entity.undefined}. *)

val mem : t -> Name.atom -> bool
(** [mem c a] is true iff [a] is bound to a {e defined} entity. *)

val bind : t -> Name.atom -> Entity.t -> t
(** [bind c a e] maps [a] to [e]. Binding to {!Entity.undefined} is the
    same as {!unbind}. *)

val unbind : t -> Name.atom -> t
val bindings : t -> (Name.atom * Entity.t) list
(** In increasing atom order; only defined bindings are listed. *)

val cardinal : t -> int
val is_empty : t -> bool

val union : prefer:[ `Left | `Right ] -> t -> t -> t
(** Merge two contexts; [prefer] selects the winner on atoms bound in
    both. Used by union-directory / per-process-namespace schemes. *)

val restrict : t -> Name.atom list -> t
(** Keep only the listed atoms. *)

val map : (Entity.t -> Entity.t) -> t -> t

val agree_on : t -> t -> Name.atom -> bool
(** [agree_on c1 c2 a] is true iff both contexts send [a] to the same
    entity (possibly ⊥). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val fold : (Name.atom -> Entity.t -> 'a -> 'a) -> t -> 'a -> 'a
(** In increasing atom (string) order, like {!bindings}. *)

val iter : (Name.atom -> Entity.t -> unit) -> t -> unit
(** In increasing atom (string) order, like {!bindings}. *)

val iter_unordered : (Name.atom -> Entity.t -> unit) -> t -> unit
(** {!iter} in interning order, which needs no sort: for consumers that
    only place bindings (the compiled engine's hash tables). *)

val exists : (Name.atom -> Entity.t -> bool) -> t -> bool
(** [exists p c] is true iff some defined binding satisfies [p].
    Short-circuits on the first hit. *)
