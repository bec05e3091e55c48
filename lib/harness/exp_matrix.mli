(** Experiment E10 — the section-5 summary: degree of coherence of common
    naming schemes, one row per scheme, one column per source of name.

    This is the quantitative rendering of the comparison the paper makes
    in prose: a single global context and a shared-root Unix tree are
    coherent everywhere; chroot breaks it; the Newcastle Connection is
    incoherent across machines for every source; the shared-naming-graph
    approach is coherent exactly for the shared fraction of the probe
    set (weak coherence lifting the replicated commands); DCE
    cell-relative names cohere only within a cell; cross-linked federations
    are incoherent; per-process namespaces arranged to agree are coherent;
    and the Algol-scope rule repairs the embedded column of a scheme whose
    other columns stay broken. *)

val worlds : unit -> Matrix.world list

val measure : unit -> Matrix.row list
(** One {!Matrix.row} per world, via {!Matrix.measure_all} at
    {!Naming.Pool.default_jobs}: with [NAMING_JOBS > 1] the worlds are
    measured in parallel, one domain task per world, with rows identical
    to the sequential sweep. *)

val run : Format.formatter -> unit
