(** The analyzer's passes.

    Each pass inspects one aspect of the naming world and emits
    diagnostics ({!Diagnostic.catalogue} lists the codes). Passes are
    pure with respect to the store — they only read it — and
    independent of one another.

    - [structure] (NG001–NG004): the four well-formedness conventions of
      {!Naming.Lint} — dot bindings and foreign bindings.
    - [reachability] (NG005): objects no activity can reach — orphans
      relative to the rule-selected activity contexts.
    - [crosslinks] (NG006–NG007): edges into a directory from outside
      its parent tree (paper §1, §6: links across autonomous systems);
      a cross-link is {e dangling} when the target subtree's own parent
      chain is broken — the home tree has lost it and only the
      cross-link keeps it alive.
    - [cycles] (NG008): directed cycles through non-dot edges, which
      break the tree-shape assumption and make name enumeration
      diverge.
    - [aliases] (NG009): entities denoted by several non-dot names from
      one activity's root — shared subgraphs and hard links (§6).
    - [coherence] (NG010–NG011): the static coherence predictor
      ({!Predict}) over the subject's probe names. *)

val structure : Subject.t -> Diagnostic.t list
val reachability : Subject.t -> Diagnostic.t list
val crosslinks : Subject.t -> Diagnostic.t list
val cycles : Subject.t -> Diagnostic.t list

val aliases : Subject.t -> Diagnostic.t list
(** Names are enumerated to depth 4. *)

val coherence : ?fuel:int -> Subject.t -> Diagnostic.t list
(** [fuel] is the predictor's budget (default {!Predict.default_fuel}). *)
