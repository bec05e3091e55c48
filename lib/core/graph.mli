(** The naming graph induced by a store.

    The nodes are the entities of the store; there is an edge labelled [a]
    from object [o] to entity [e] whenever [o] is a context object and its
    context binds [a] to [e] (paper, section 2). Resolving a compound name
    is traversing a directed path in this graph. *)

type edge = { src : Entity.t; label : Name.atom; dst : Entity.t }

val edges : Store.t -> edge list
(** Every edge of the graph, in source allocation order. *)

val out_edges : Store.t -> Entity.t -> (Name.atom * Entity.t) list
(** Outgoing edges of a context object (empty otherwise). *)

val out_degree : Store.t -> Entity.t -> int

val reachable : Store.t -> from:Entity.t -> Entity.Set.t
(** All entities reachable from [from] (inclusive) along edges. *)

val reachable_from_context : Store.t -> Context.t -> Entity.Set.t
(** All entities reachable through the bindings of a context value. *)

val has_cycle : Store.t -> bool
(** True when the graph contains a directed cycle (e.g. [".."] edges). *)

val is_tree : Store.t -> root:Entity.t -> ignore:(Name.atom -> bool) -> bool
(** True when, ignoring edges whose label satisfies [ignore] (typically
    ["."] and [".."]), every node reachable from [root] has exactly one
    incoming edge within the reachable subgraph. *)

val all_names :
  Store.t ->
  Context.t ->
  max_depth:int ->
  ?skip:(Name.atom -> bool) ->
  unit ->
  (Name.t * Entity.t) list
(** Enumerates every compound name of length ≤ [max_depth] resolvable to a
    defined entity from the given context, with its denotation. Edges whose
    label satisfies [skip] are not traversed (default: skip ["."] and
    [".."], which otherwise make the enumeration explode). Names are listed
    in breadth-first order. *)

val names_seq :
  Store.t ->
  Context.t ->
  max_depth:int ->
  ?skip:(Name.atom -> bool) ->
  unit ->
  (Name.t * Entity.t) Seq.t
(** {!all_names} as a lazy sequence, produced one breadth-first level at
    a time: only the level being consumed is resident. {!all_names} is
    its list view. Do not mutate the store while consuming it. *)

val names_of :
  Store.t ->
  Context.t ->
  target:Entity.t ->
  max_depth:int ->
  ?skip:(Name.atom -> bool) ->
  unit ->
  Name.t list
(** The subset of {!all_names} denoting [target]. *)

val to_dot : Store.t -> string
(** Graphviz rendering, for debugging and documentation. *)
