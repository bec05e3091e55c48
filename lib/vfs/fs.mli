(** A file-system substrate over the core naming model.

    Directories {e are} context objects of a {!Naming.Store}, and files are
    data objects — exactly the paper's reading of a Unix file system
    (section 2: "an example of a context object is a Unix file
    directory"). Every naming scheme in this reproduction manipulates file
    trees through this module, so resolution in a scheme and resolution in
    the formal model are literally the same code path.

    Each directory carries the ordinary Unix bindings ["."] (itself) and
    [".."] (its parent; the root is its own parent). These are regular
    context bindings — [".."] above a machine's root is precisely the
    mechanism the Newcastle Connection exploits. *)

type t

val create : ?root_label:string -> Naming.Store.t -> t
(** A fresh file system with a fresh root directory. *)

val of_root : Naming.Store.t -> Naming.Entity.t -> t
(** Wraps an existing directory as a file-system root.
    @raise Invalid_argument if the entity is not a context object. *)

val store : t -> Naming.Store.t
val root : t -> Naming.Entity.t

(** {1 Creating} *)

val mkdir : t -> under:Naming.Entity.t -> string -> Naming.Entity.t
(** Creates (or returns an existing) directory named [s] under [under].
    @raise Invalid_argument if [under] is not a directory, or [s] exists
    and is not a directory. *)

val mkdir_path : t -> string -> Naming.Entity.t
(** [mkdir_path t "/a/b/c"] — creates all missing intermediate directories
    starting from the root ([mkdir -p]). A relative path starts at the
    root too. *)

val add_file : t -> string -> content:string -> Naming.Entity.t
(** Creates the file (and missing directories); overwrites content if it
    already exists as a file.
    @raise Invalid_argument if the path names an existing directory. *)

val populate : t -> string list -> unit
(** [populate t paths] builds a tree from path specs: a spec ending in
    ["/"] creates a directory, anything else an empty file. *)

(** {1 Resolving and reading} *)

val resolve_from : t -> dir:Naming.Entity.t -> Naming.Name.t -> Naming.Entity.t
(** Resolves a {e relative} name in the context of [dir]. A leading root
    atom resolves through the directory's ["/"] binding only if one was
    explicitly created — directories do not have one by default; resolving
    absolute names is the job of per-activity contexts in the schemes. *)

val lookup : t -> string -> Naming.Entity.t
(** Resolves from the root: [lookup t "/a/b"] and [lookup t "a/b"] are the
    same thing. ⊥ when any step fails. *)

val kind : t -> Naming.Entity.t -> [ `Dir | `File | `Other | `Missing ]

val read : t -> Naming.Entity.t -> string option
(** File content; [None] for non-files. *)

val write : t -> Naming.Entity.t -> string -> unit
(** @raise Invalid_argument for non-files. *)

val readdir : t -> Naming.Entity.t -> (Naming.Name.atom * Naming.Entity.t) list
(** Defined entries, excluding ["."] and [".."], in atom order. Empty for
    non-directories. *)

val parent_of : t -> Naming.Entity.t -> Naming.Entity.t option
(** Follows the [".."] binding of a directory; [None] without dots or for
    non-directories. For files, scans is not attempted — use the path you
    resolved. *)

(** {1 Linking} *)

val link : t -> dir:Naming.Entity.t -> string -> Naming.Entity.t -> unit
(** Binds an existing entity under a (possibly additional) name — a hard
    link; works for files and directories alike, which is how shared
    naming trees are attached (e.g. Andrew's [/vice]).
    @raise Invalid_argument if [dir] is not a directory. *)

val unlink : t -> dir:Naming.Entity.t -> string -> unit

val rename : t -> dir:Naming.Entity.t -> string -> string -> unit
(** Renames a binding within a directory.
    @raise Invalid_argument when the old name is unbound or the new name
    is taken. *)

val remove_tree : t -> dir:Naming.Entity.t -> string -> unit
(** Unlinks the binding; the subtree becomes garbage unless linked
    elsewhere (the store does not collect). @raise Invalid_argument when
    the binding does not exist. *)

val walk :
  t ->
  ?follow_links:bool ->
  Naming.Entity.t ->
  (Naming.Name.t -> Naming.Entity.t -> unit) ->
  unit
(** Depth-first visit of the subtree under a directory, calling the
    function with the relative name and entity of every reachable entry
    (dot entries skipped). With [follow_links:false] (the default)
    directories that are not tree children (their [".."] elsewhere) are
    reported but not entered — same membership rule as {!Subtree}. *)

val find :
  t -> Naming.Entity.t -> pattern:string -> (Naming.Name.t * Naming.Entity.t) list
(** Glob-style search under a directory. The pattern is a ['/']-separated
    sequence of components; a component is matched literally except:
    ["*"] matches any single atom, and a trailing ["**"] matches any
    remaining path (of length >= 1). Dot entries never match. Results in
    traversal order, names relative to the directory.
    @raise Invalid_argument on an empty or malformed pattern, or a
    ["**"] that is not final. *)

(** {1 Inspection} *)

val paths_of :
  t -> target:Naming.Entity.t -> max_depth:int -> Naming.Name.t list
(** All names of [target] relative to the root (dot edges skipped). *)

val tree_size : t -> int
(** Entities reachable from the root, ignoring dot edges. *)

val pp_tree : Format.formatter -> t -> unit
(** An [ls -R]-style dump, for examples and debugging. *)
