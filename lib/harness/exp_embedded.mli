(** Experiment E6 — Figure 6: embedded names under the Algol-scope rule.

    A structured object (a project subtree with [src/] files referencing
    [lib/] components, including a nested sub-project that shadows a
    component) is measured under the reader-context baseline and under the
    Algol-scope rule; then the subtree is relocated, copied, and attached
    at a second place, re-measuring each time. Paper: under the Algol rule
    the meaning of embedded names does not depend on the reader, and is
    preserved by relocation and copying; a name embedded at an inner node
    resolves against the {e closest} ancestor binding. *)

type scenario = {
  label : string;
  resolved : float;  (** fraction of refs that resolve at all *)
  coherent_across_readers : float;
  meaning_preserved : float;
      (** fraction of refs whose denotation matches the pre-operation
          denotation (for the copy scenario: matches the {e copied}
          counterpart) *)
}

type result = {
  baseline_reader_rule : float;
      (** coherence across readers under R(activity) *)
  shadowing_correct : bool;
      (** nested source resolves [lib/c0] to the inner component *)
  scenarios : scenario list;  (** initial / relocated / copied / attached *)
}

val measure : unit -> result
(** A {!Workload.Docgen.default_spec} project drawn from seed 42. *)

val run : Format.formatter -> unit
