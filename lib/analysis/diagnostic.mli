(** Diagnostics: the analyzer's unit of output.

    Every finding carries a stable code ([NG001]…), a severity, the pass
    that produced it, a rendered message and structured witnesses: the
    entities involved, the probe name (if any) and the resolution trace
    that exhibits the problem. Codes are append-only — tools and CI
    configurations key on them, so a code's meaning never changes. *)

type severity = Info | Warning | Error

val severity_to_string : severity -> string
val severity_of_string : string -> severity option
val severity_rank : severity -> int
(** [Info] = 0, [Warning] = 1, [Error] = 2. *)

val pp_severity : Format.formatter -> severity -> unit

type t = {
  code : string;  (** stable diagnostic code, e.g. ["NG003"] *)
  severity : severity;
  pass : string;  (** id of the pass that produced it *)
  message : string;  (** human-readable, labels already rendered *)
  entities : Naming.Entity.t list;  (** witness entities, most specific first *)
  name : Naming.Name.t option;  (** the name under analysis, if any *)
  trace : Naming.Resolver.trace;  (** witness resolution path (may be empty) *)
  loc : int option;
      (** position of the witness in the analyzed input — for flow
          analysis, the plan step index (and, via the CLI, the script
          line) *)
}

val make :
  code:string ->
  severity:severity ->
  pass:string ->
  ?entities:Naming.Entity.t list ->
  ?name:Naming.Name.t ->
  ?trace:Naming.Resolver.trace ->
  ?loc:int ->
  string ->
  t
(** [make ~code ~severity ~pass msg] builds a diagnostic. *)

val compare : t -> t -> int
(** Severity descending, then code, then message — the report order —
    with pass, loc and rendered name as final tiebreaks so the order is
    total over distinct findings and reports are deterministic at any
    job count. *)

val catalogue : (string * severity * string) list
(** Every code the analyzer can emit: (code, default severity, summary).
    Kept in sync with the passes by a unit test. *)

val pp : Naming.Store.t -> Format.formatter -> t -> unit
(** One line: code, severity, message; plus indented witness lines for
    the name and trace when present. *)

val to_json : Naming.Store.t -> t -> Naming.Json.t
