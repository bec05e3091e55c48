(** Abstract naming worlds: the static mirror of [Workload.Script].

    The script op language is deterministic over a fresh world, so its
    effect can be shadow-interpreted exactly: abstract nodes stand for
    the directories and files a replay would create, abstract processes
    for the activities, and string maps for their contexts. Two facts
    make the mirror sound: the correspondence between abstract node ids
    and concrete entities is a bijection maintained op by op, and every
    skip condition of {!Workload.Script.apply_checked} is reproduced
    here, so [Bot] means "a replay would resolve this to ⊥" — not "the
    analysis gave up". The flow analyzer ({!Flow}) builds its coherence
    verdicts on top of this state; the qcheck suite cross-validates the
    mirror against actual replays. *)

type t

type value = Bot | Node of int
(** An abstract denotation: ⊥, or the id of an abstract entity. Equal
    ids denote the same concrete entity in any replay; distinct ids
    denote distinct entities. *)

type step = { at : value; atom : string; target : value }
(** One step of an abstract resolution trace, mirroring
    [Naming.Resolver.step]: the object resolved at ([Bot] on the first
    step, where the activity's own context is used), the atom looked
    up, and its denotation. *)

type stale = { binding : string; unbound_at : int }
(** A name head that is no longer bound in the resolving process but
    was explicitly [Unbind]-ed at op index [unbound_at] — the witness
    for the unbind-then-use diagnostic. *)

val create : unit -> t
(** A fresh world: one root directory (with ["."] and [".."] dot
    entries, as [Workload.Script.new_world] builds its file system) and
    no processes. *)

val apply : t -> index:int -> Workload.Script.op -> (unit, string) result
(** Interprets one op at position [index] of the script. [Error reason]
    predicts that [Workload.Script.apply_checked] would skip this op;
    the skip is also recorded (see {!skips}) and the state is
    unchanged. *)

val skips : t -> Workload.Script.skip list
(** Predicted skips so far, in op order. *)

val root : t -> int
val n_nodes : t -> int
val n_dirs : t -> int
val n_procs : t -> int
val mem_proc : t -> int -> bool
val proc_label : t -> int -> string

val proc_parent : t -> int -> int option
(** The fork parent, for divergence checks. *)

val parse_path : string -> (string list, string) result
(** Mirror of [Naming.Name.of_string]: atoms of a path, a leading ["/"]
    atom marking an absolute name. *)

val resolve_proc : t -> int -> string list -> value * step list * stale option
(** Resolves a name (as atoms) for a process, mirroring the
    [Schemes.Process_env.resolve] dispatch: absolute names through the
    context, relative names with a directly-bound head likewise, any
    other relative name prefixed with ["."] (cwd-relative). The process
    must exist ({!mem_proc}). *)

val resolve_at : t -> dir:int -> string list -> value * step list
(** Resolves a relative name in the scope of a directory node,
    mirroring [Vfs.Fs.resolve_from] — in particular a leading ["/"]
    atom finds nothing unless the directory explicitly binds one. *)

val lookup_path : t -> string -> value * step list
(** Mirror of [Vfs.Fs.lookup]: resolution from the root; [Bot] on an
    unparseable path. *)

val parent_dir_of : t -> string -> value
(** The directory containing the object a path names — the scope in
    which a name embedded in that object is read. The root for
    single-atom paths; [Bot] when the parent does not resolve to a
    directory or the path is unparseable. *)

val equal_value : value -> value -> bool

type labels
(** The label of every node created so far. Labels never change and
    nodes are never removed, so a value or trace rendered against the
    final labels reads as it would have when it was resolved. *)

val labels : t -> labels

val value_to_string : labels -> value -> string
(** ["n<id>:<label>"], or ["⊥"]. *)

val trace_to_string : labels -> step list -> string
(** ["atom → value"] (a lookup in the activity's own context) or
    ["value.atom → value"] per step, joined by ["; "]. *)
