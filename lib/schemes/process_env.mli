(** Per-activity naming environments.

    Operating systems associate each activity with an implicit context —
    "the context of process p" — holding at least a binding for the root
    directory and one for the working directory (paper, section 5.1). This
    module is the backbone shared by all scheme implementations: it couples
    a store with a {!Naming.Rule.Assignment} and manages per-process
    context objects.

    The per-process context is itself a context {e object} in the store, so
    schemes can mutate it (chdir, chroot, mount) and rules pick the change
    up immediately; forking copies the parent's context — after which the
    two diverge, matching the paper's remark that "a parent and a child
    have coherence for all names until one of them modifies its
    context". *)

type t

val create : Naming.Store.t -> t
val store : t -> Naming.Store.t

val assignment : t -> Naming.Rule.Assignment.t
(** The activity ↦ context-object association, shared with rules. *)

val spawn :
  ?label:string ->
  ?root:Naming.Entity.t ->
  ?cwd:Naming.Entity.t ->
  ?extra:(string * Naming.Entity.t) list ->
  t ->
  Naming.Entity.t
(** Creates an activity with a fresh context object binding ["/"] to
    [root], ["."] to [cwd] (default: [root]), plus [extra] bindings. *)

val fork : ?label:string -> t -> parent:Naming.Entity.t -> Naming.Entity.t
(** Creates a child activity whose context object starts as a {e copy} of
    the parent's current context (Unix semantics: inherited, then
    independent). @raise Invalid_argument for an unmanaged parent. *)

val context_object : t -> Naming.Entity.t -> Naming.Entity.t
(** The context object of a managed activity. @raise Invalid_argument
    otherwise. *)

val context : t -> Naming.Entity.t -> Naming.Context.t
(** Its current context value. *)

val set_root : t -> Naming.Entity.t -> Naming.Entity.t -> unit
(** [set_root env a dir] — chroot. *)

val set_cwd : t -> Naming.Entity.t -> Naming.Entity.t -> unit
(** chdir. *)

val set_binding : t -> Naming.Entity.t -> string -> Naming.Entity.t -> unit
(** Adds/overrides any binding in the activity's context (mount-style). *)

val remove_binding : t -> Naming.Entity.t -> string -> unit

val root_of : t -> Naming.Entity.t -> Naming.Entity.t
(** The current ["/"] binding (⊥ if absent). *)

val cwd_of : t -> Naming.Entity.t -> Naming.Entity.t

val activities : t -> Naming.Entity.t list
(** Managed activities in creation order. *)

val rule : t -> Naming.Rule.t
(** R(activity) over this environment's assignment — the common
    operating-system closure mechanism. *)

val resolve : t -> as_:Naming.Entity.t -> Naming.Name.t -> Naming.Entity.t
(** Resolves a name generated internally by [as_], under {!rule}.
    Absolute names resolve through the ["/"] binding; a relative name
    whose head is bound directly in the activity's context (a
    per-process attachment) resolves there; any other relative name is
    resolved from the working directory (the ["."] binding). The walk
    goes through {!Naming.Engine.select}'s engine (the store's own,
    unless [NAMING_ENGINE] asks for the interpreter). Every engine
    returns the same entity. *)

val resolve_str : t -> as_:Naming.Entity.t -> string -> Naming.Entity.t
