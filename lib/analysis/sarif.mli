(** SARIF 2.1.0 rendering of analyzer reports.

    One run per invocation, one result per diagnostic, the full NG
    catalogue as the tool's rule metadata — the minimal shape GitHub
    code scanning ingests. Severities map to SARIF levels as
    [Error → "error"], [Warning → "warning"], [Info → "note"]. *)

type source = {
  report : Engine.report;
  uri : string option;
      (** The analyzed artifact (a script file path), when there is
          one; sample worlds and sample scripts have none and are
          identified by a logical location carrying the report label. *)
  line_of : int -> int option;
      (** Maps a diagnostic's [loc] (plan step index) to a 1-based
          source line. *)
}

val of_report : ?uri:string -> ?line_of:(int -> int option) -> Engine.report -> source
(** [line_of] defaults to [fun _ -> None]. *)

val render : source list -> Naming.Json.t
(** The complete [sarifLog] document. *)
