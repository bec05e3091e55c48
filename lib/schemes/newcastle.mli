(** The Newcastle Connection (Figure 3).

    A single naming tree is created from the individual trees of several
    machines by adding a new super-root whose entries are the machines'
    roots; the Unix [".."] notation refers to nodes above a machine's
    root. Processes on different machines have {e different} bindings for
    their root directory: typically R(p)(/) is the root of the machine on
    which p executes. Hence there is coherence for ["/"]-names only among
    processes on the same machine, and incoherence across machine
    boundaries — but a simple syntactic rule maps names across machines
    (paper, section 5.1).

    During remote execution the child's root is bound either to the root
    of the invoking machine (coherence for parameters) or to the root of
    the executing machine (access to local objects) — the two policies of
    {!remote_exec}. *)

type t

val build : machines:string list -> Naming.Store.t -> t
(** One {!Unix_scheme.default_tree} per machine label, joined under a
    fresh super-root. Each machine root's [".."] is rebound to the
    super-root. *)

val join : Naming.Store.t -> (string * t) list -> t
(** The paper: "The Newcastle Connection is a distributed system that can
    be extended recursively because each extended system is still a Unix
    system with a single tree." [join store \[("sysA", tA); ("sysB", tB)\]]
    creates a fresh super-root with one entry per system, rebinding each
    old super-root's [".."] to it. In the joined system machines are named
    ["<sys>.<machine>"], [".."] climbs two levels from a machine root, and
    {!map_name} produces correspondingly deeper [/../../<sys>/<machine>/...]
    names. The systems must share the given store; the joined system
    reuses the first system's process environment.
    @raise Invalid_argument on fewer than two systems. *)

val env : t -> Process_env.t
val store : t -> Naming.Store.t
val super_root : t -> Naming.Entity.t
val machines : t -> string list
val fs_of : t -> string -> Vfs.Fs.t
(** @raise Invalid_argument for an unknown machine. *)

val machine_root : t -> string -> Naming.Entity.t

val spawn_on : ?label:string -> t -> machine:string -> Naming.Entity.t
(** A process whose ["/"] and ["."] bind to its machine's root. *)

val machine_of : t -> Naming.Entity.t -> string
(** The machine whose root the activity's ["/"] currently binds; derived
    from the binding, so a remote child under the invoker-root policy
    reports its parent's machine. @raise Invalid_argument when the root
    binding is not a machine root. *)

type exec_policy =
  | Invoker_root
      (** child's root = parent's root: names passed as parameters stay
          coherent. *)
  | Remote_root
      (** child's root = executing machine's root: the child can reach
          local objects by their customary names, parameters break. *)

val remote_exec :
  ?label:string ->
  t ->
  parent:Naming.Entity.t ->
  machine:string ->
  policy:exec_policy ->
  Naming.Entity.t
(** Spawns a child of [parent] on [machine] under the given root-binding
    policy. The working directory follows the root binding. *)

val map_name :
  t -> from_machine:string -> to_machine:string -> Naming.Name.t -> Naming.Name.t
(** The "simple rule to map names across machines": an absolute name of
    [from_machine] is rewritten as [/../<from_machine>/...] so that it
    denotes the same entity when resolved on [to_machine]. Names that are
    not absolute are returned unchanged. *)

val rule : t -> Naming.Rule.t
val resolve : t -> as_:Naming.Entity.t -> string -> Naming.Entity.t

val absolute_probes : ?max_depth:int -> t -> machine:string -> Naming.Name.t list
(** ["/"]-rooted names of one machine's tree. *)
