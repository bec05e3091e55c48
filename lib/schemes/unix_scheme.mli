(** The single-naming-graph approach: Unix, and Locus/V-style global trees.

    Section 5.1 of the paper: one naming tree shared by all activities; the
    context R(p) of a process has two bindings, the root directory and the
    working directory. Typically every process has the same root, giving
    coherence for all names starting with ["/"]; processes that are
    chrooted (different root binding) lose it. Parent and child have
    coherence for {e all} names until one modifies its context.

    Locus and the V system combine subtrees on different machines into one
    tree and bind every process's root to the single tree root — the
    [build_distributed] constructor. *)

type t

val build : ?tree:string list -> Naming.Store.t -> t
(** A single-machine world. [tree] uses {!Vfs.Fs.populate} syntax; the
    default is a small conventional Unix layout. *)

val build_distributed : machines:string list -> Naming.Store.t -> t
(** A Locus/V-style world: per-machine subtrees ["/<machine>"], each a
    {!default_tree}, combined under one root shared by every process. *)

val default_tree : string list

val env : t -> Process_env.t
val fs : t -> Vfs.Fs.t
val store : t -> Naming.Store.t
val root : t -> Naming.Entity.t

val spawn : ?label:string -> ?cwd:string -> t -> Naming.Entity.t
(** A process with the shared root; [cwd] is a path in the tree (default
    the root). @raise Invalid_argument when [cwd] does not name a
    directory. *)

val spawn_chrooted : ?label:string -> root_path:string -> t -> Naming.Entity.t
(** A process whose ["/"] binds to the directory at [root_path] — the
    paper's "in Unix, all processes need not have the same root". *)

val fork : ?label:string -> t -> parent:Naming.Entity.t -> Naming.Entity.t
val chdir : t -> Naming.Entity.t -> string -> unit
(** @raise Invalid_argument when the path does not name a directory in the
    process's current namespace. *)

val rule : t -> Naming.Rule.t
(** R(activity). *)

val resolve : t -> as_:Naming.Entity.t -> string -> Naming.Entity.t

val absolute_probes : ?max_depth:int -> t -> Naming.Name.t list
(** Every ["/"]-rooted name of the shared tree up to [max_depth]
    (default 6) — the probe set used by the experiments. *)
