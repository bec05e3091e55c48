(** The shared naming graph approach (Figure 4): Andrew-style systems.

    Client subsystems keep private naming trees and additionally attach one
    {e shared} naming tree — in Andrew under the node [/vice]. Only files in
    the shared tree have names that denote the same entity for every
    client ("global names": those prefixed with /vice); local names are
    coherent only within a client. Replicated commands and libraries
    ([/bin], [/usr/lib], …) are locally instantiated on every client, so
    their names are only {e weakly} coherent (paper, sections 5 and 5.2). *)

type t

val build : clients:string list -> ?attach_name:string -> Naming.Store.t -> t
(** [attach_name] defaults to ["vice"]. Each client's private tree is
    {!default_local_tree} (a small home/tmp layout); the shared one is
    {!default_shared_tree} (packages and project files). *)

val default_local_tree : string list
val default_shared_tree : string list

val env : t -> Process_env.t
val store : t -> Naming.Store.t
val shared_fs : t -> Vfs.Fs.t
val clients : t -> string list
val client_fs : t -> string -> Vfs.Fs.t
val client_root : t -> string -> Naming.Entity.t
val attach_name : t -> string

val replication : t -> Naming.Replication.t
(** Replica groups declared by {!replicate_local}. *)

val replicate_local : t -> path:string -> content:string -> unit
(** Creates the file at [path] in {e every} client's local tree with
    identical content and declares the copies as one replica group — the
    paper's replicated commands and libraries. *)

val spawn_on : ?label:string -> t -> client:string -> Naming.Entity.t
(** A process rooted at its client's local root. *)

val remote_exec :
  ?label:string ->
  t ->
  parent:Naming.Entity.t ->
  client:string ->
  Naming.Entity.t
(** Andrew-style remote execution: the child runs rooted at the {e remote}
    client's tree, so only shared-tree entities can be passed as
    arguments (the paper: "Andrew ... therefore only entities in the
    shared naming graph can be passed as argument"). *)

val rule : t -> Naming.Rule.t
val resolve : t -> as_:Naming.Entity.t -> string -> Naming.Entity.t

val shared_probes : ?max_depth:int -> t -> Naming.Name.t list
(** Names under [/<attach_name>] — the "global" names. *)

val local_probes : ?max_depth:int -> t -> client:string -> Naming.Name.t list
(** ["/"]-rooted names of one client's tree (the shared attachment edge is
    excluded so the two probe sets are disjoint). *)
