(** The multi-pass analyzer driver.

    Runs every {!Passes} pass over a {!Subject}, collects the
    diagnostics into a deterministic report (severity descending, then
    code, then message), and renders it as text or JSON. Exit-code
    policy for CI: {!has_errors} reflects the {e unfiltered} error
    count, so gating is independent of the display filter. *)

type config = {
  min_severity : Diagnostic.severity;
      (** Diagnostics below this are dropped from the report (the
          severity counters still see them). *)
  fuel : int;  (** budget of the coherence predictor *)
}

val default_config : config
(** [min_severity = Info], [fuel = Predict.default_fuel]. *)

type pass = {
  id : string;
  doc : string;
  run : config -> Subject.t -> Diagnostic.t list;
}

val all_passes : pass list
(** In execution order: structure, reachability, crosslinks, cycles,
    aliases, coherence. *)

type report = {
  label : string;  (** what was analyzed, e.g. the scheme name *)
  activities : int;
  objects : int;
  context_objects : int;
  probes : int;
  passes_run : string list;
  diagnostics : Diagnostic.t list;  (** sorted, filtered by severity *)
  errors : int;  (** unfiltered count *)
  warnings : int;  (** unfiltered count *)
  infos : int;  (** unfiltered count *)
}

val analyze : ?config:config -> label:string -> Subject.t -> report
(** Runs {!all_passes}, in order. *)

val analyze_many :
  ?config:config -> ?jobs:int -> (string * Subject.t) list -> report list
(** Analyze several labelled subjects, reports in input order. Subjects
    are independent (each has its own store), so with [jobs > 1] the
    analyses fan out one task per subject on the shared domain pool,
    each subject's store frozen for the duration. Reports are
    structurally identical to the sequential ones. *)

val assemble :
  ?min_severity:Diagnostic.severity ->
  label:string ->
  activities:int ->
  objects:int ->
  context_objects:int ->
  probes:int ->
  passes_run:string list ->
  Diagnostic.t list ->
  report
(** Builds a report from raw counts and diagnostics, applying the same
    sorting, counting and display-filter policy as {!analyze} — the
    entry point for analyses that are not world passes (e.g.
    {!Flowpasses}). *)

val has_errors : report -> bool
val exit_code : report list -> int
(** 1 when any report has errors, 0 otherwise. *)

val pp : Naming.Store.t -> Format.formatter -> report -> unit
val to_json : Naming.Store.t -> report -> Naming.Json.t
