(** OSF DCE-style naming: a global directory service plus one local cell.

    In DCE the shared naming tree (the Global Directory Service) is
    attached in each local tree under ["/..."], and an additional local
    context — the {e cell}, an organisational unit — is reached via
    ["/.:"]. A machine may know only one local cell, so names relative to
    the cell context are incoherent across cell boundaries; the paper uses
    this to argue that a single local context is not enough (section
    5.2). Cells are themselves reachable globally under
    ["/.../cells/<cell>"], which is what makes cell-relative names
    {e mappable} even though they are not coherent. *)

type t

val global_atom : string
(** ["..."] *)

val cell_atom : string
(** [".:"] *)

val build : cells:(string * string list) list -> Naming.Store.t -> t
(** [cells] lists each cell with its member machines. Every cell's tree
    (services and profiles) is created under [/.../cells/<cell>] in the
    global tree (which also holds a registry); every machine gets a
    small private tree with ["..."] bound to the global root and [".:"]
    bound to its cell's directory. *)

val env : t -> Process_env.t
val store : t -> Naming.Store.t
val cells : t -> string list
val machines : t -> string list
val cell_of_machine : t -> string -> string
val machine_root : t -> string -> Naming.Entity.t
val cell_dir : t -> string -> Naming.Entity.t
val global_root : t -> Naming.Entity.t

val add_local_context : t -> machine:string -> name:string -> dir:Naming.Entity.t -> unit
(** The paper: "A single local context such as the cell is not going to be
    sufficient; it is useful to be able to use names relative to several
    local contexts such as those of the divisions, departments, and
    projects within an organization." Binds an additional local context
    (e.g. a department directory) under [name] in the machine's root —
    adding more non-global names, hence more incoherence, which E10's DCE
    row quantifies. *)

val spawn_on : ?label:string -> t -> machine:string -> Naming.Entity.t
val rule : t -> Naming.Rule.t
val resolve : t -> as_:Naming.Entity.t -> string -> Naming.Entity.t

val cell_relative_probes : ?max_depth:int -> t -> cell:string -> Naming.Name.t list
(** Names of the form [/.:/...] for entities of the given cell. *)

val global_probes : ?max_depth:int -> t -> Naming.Name.t list
(** Names of the form [/.../...]. *)

val map_cell_name : t -> cell:string -> Naming.Name.t -> Naming.Name.t
(** Rewrites a [/.:/x] name into its globally valid [/.../cells/<cell>/x]
    form — the human "prefix mapping" of section 7 applied to cells.
    Non-cell-relative names are returned unchanged. *)
