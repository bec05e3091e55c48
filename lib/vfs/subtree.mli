(** Subtree operations: copy, relocate, attach.

    Section 6 (Example 2) of the paper claims that with the Algol-scope
    rule for embedded names, "the subtree containing the structured object
    can be simultaneously attached in different parts of the distributed
    environment, and also relocated or copied without changing the meaning
    of the embedded names". These are the operations that experiment E6
    performs between measurements. *)

val members : Fs.t -> Naming.Entity.t -> Naming.Entity.Set.t
(** The entities belonging to the subtree (inclusive): files and other
    plain objects bound inside it, and directories that are {e tree
    children} — their [".."] points back at the binding directory (or is
    absent, for dot-less file systems). A directory attached from
    elsewhere (a cross-link, a shared naming tree) is not a member; when
    the subtree is copied, such attachments stay shared rather than being
    duplicated. *)

val copy : Fs.t -> Naming.Entity.t -> Naming.Entity.t
(** Deep-copies the subtree: members are duplicated (new entities, same
    data / same internal bindings); edges leaving the member set keep
    pointing at the original targets (e.g. cross-links); ["."] and [".."]
    bindings are rebound within the copy, the copy's root becoming its own
    parent until it is attached somewhere. Shared internal structure is
    preserved (the copy is a graph homomorphism, not an unfolding). *)

val attach :
  Fs.t -> dir:Naming.Entity.t -> name:string -> Naming.Entity.t -> unit
(** Binds the subtree root under an additional directory. Unlike
    {!relocate} this does not touch [".."]: a subtree attached in several
    places keeps one primary parent, which is exactly why naive [".."]
    relative references break and the Algol-scope rule is interesting. *)

val detach : Fs.t -> dir:Naming.Entity.t -> name:string -> unit
(** [Fs.unlink]. *)

val relocate :
  Fs.t ->
  src:Naming.Entity.t ->
  name:string ->
  dst:Naming.Entity.t ->
  ?new_name:string ->
  unit ->
  unit
(** Moves the binding [name] from directory [src] to directory [dst]
    (keeping the name unless [new_name] is given) and, when the moved
    entity is a directory, rebinds its [".."] to [dst].
    @raise Invalid_argument when [src] has no such binding or [dst] is not
    a directory. *)

val size : Fs.t -> Naming.Entity.t -> int
(** Cardinality of {!members}. *)
