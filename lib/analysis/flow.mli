(** Name-flow analysis: static coherence checking of scripts.

    A {e plan} interleaves {!Workload.Script} operations with {e flows}
    — the three ways an activity obtains a name (paper, section 3):
    generating it ([use]), receiving it in a message ([send]), or
    reading it from an object it is embedded in ([read]). The analyzer
    shadow-interprets the operations over an {!Absstate} world and
    classifies every flow as provably coherent, provably incoherent,
    vacuous, or unknown — {e without} running the simulator. Each
    verdict carries a witness: the plan step, the per-side abstract
    resolutions and traces, and any stale-binding or fork-divergence
    evidence.

    {!replay} runs the same plan for real — ops through
    [Workload.Script.apply_checked], send flows through
    [Naming.Coherence.check] where the paper machinery applies directly
    — and {!agrees} states the soundness relation the qcheck suite
    enforces: a definite static verdict is never contradicted by the
    dynamic one. *)

type flow =
  | Use of { proc : int; name : Naming.Name.t }
      (** [proc] generates [name] internally and resolves it. *)
  | Send of { sender : int; receiver : int; name : Naming.Name.t }
      (** [name] travels in a message; coherence compares the sender's
          resolution with the resolution at the receiving end. *)
  | Read of { reader : int; path : string; name : Naming.Name.t }
      (** [reader] reads [name] embedded in the object at [path];
          coherence compares the denotation in the object's own scope
          (its containing directory; the host tree for absolute names)
          with the reader's resolution. *)

type step = Op of Workload.Script.op | Flow of flow
type plan = step list

type config = {
  received_rule : [ `Receiver | `Sender ];
      (** Context for the [Received] side of a send: [`Receiver] is the
          common OS closure R(receiver) — the paper's problematic
          default; [`Sender] models remapping/forwarding the sender's
          context with the message. *)
  embedded_rule : [ `Reader | `Source ];
      (** Context for the [Embedded] side of a read: [`Reader] resolves
          in the reading activity's context; [`Source] keeps the
          object's own scope (the coherent-by-construction remedy). *)
  fuel : int;  (** Names longer than this are not analyzed. *)
}

val default_config : config
(** [`Receiver], [`Reader], {!Predict.default_fuel}. *)

type reason =
  | Missing_ref of string
      (** The flow references a process or object that does not exist —
          typically the result of a silently-skipped op. *)
  | Fuel  (** The name exceeded [config.fuel]. *)

type outcome = Coherent | Incoherent | Vacuous | Unknown of reason

(** Whose resolution a side is: a process's, as
    ["proc 1:p0 (receiver)"], or the scope of an object, as
    ["scope of /a/b"] (["scope of /a/b (source rule)"] for the reader's
    side under the [`Source] embedded rule). *)
type role =
  | Proc of { proc : int; label : string; what : string }
  | Scope of { path : string; source_rule : bool }

type side = {
  role : role;
  value : Absstate.value;
  steps : Absstate.step list;  (** the abstract resolution trace *)
  stale : Absstate.stale option;
      (** Set when the name's head was explicitly unbound earlier —
          the unbind-then-use witness. *)
}
(** Sides are kept as data, and rendered ({!role_to_string},
    {!Absstate.value_to_string}) only by the diagnostics that print
    them. *)

type divergence = {
  parent : int;  (** fork parent of the resolving process *)
  parent_value : Absstate.value;
      (** the parent's resolution; the process's own is its [Use] side *)
}

type verdict = {
  index : int;  (** plan step index *)
  flow : flow;
  outcome : outcome;
  sides : side list;  (** empty on [Unknown] short-circuits *)
  divergence : divergence option;
      (** For [Use] flows: set when the process and its fork parent
          resolve the name to different entities. *)
}

type result = {
  config : config;
  verdicts : verdict list;  (** one per flow, in plan order *)
  skips : (int * Workload.Script.skip) list;
      (** Predicted silently-skipped ops, keyed by plan step index. *)
  ops : int;
  flows : int;
  procs : int;
  nodes : int;
  dirs : int;
  labels : Absstate.labels;  (** renders the verdicts' values and steps *)
}

val analyze : ?config:config -> plan -> result

val analyze_many : ?config:config -> ?jobs:int -> plan list -> result list
(** [analyze] over several plans, results in input order. Each analysis
    builds its own abstract state from its plan, so with [jobs > 1] the
    plans fan out one task per plan on the shared domain pool; results
    are structurally identical to the sequential ones. *)

(** {1 Dynamic cross-validation} *)

type dyn = { dyn_index : int; dyn_outcome : outcome; dyn_diverged : bool }

type replay_result = {
  dyn_verdicts : dyn list;
  dyn_skips : (int * Workload.Script.skip) list;
}

val replay : ?config:config -> plan -> replay_result
(** Actually runs the plan over a fresh world and judges every flow
    from the concrete resolutions — absolute-name sends through
    [Naming.Coherence.check] under the configured rule, the rest
    through the per-activity resolutions of [Schemes.Process_env]. All
    resolutions go through the fresh store's own compiled engine
    ({!Naming.Engine.select}), which script ops patch between flows, or
    the interpreter under [NAMING_ENGINE=interpreted]. *)

val agrees : outcome -> outcome -> bool
(** [agrees static dynamic] — the soundness relation: a static
    [Unknown] agrees with anything; any other static outcome must
    match the dynamic one exactly. *)

(** {1 Parsing and printing} *)

val parse : string -> (plan * int array, string) Stdlib.result
(** Parses the script-file syntax: one step per line — any
    [Workload.Script.op_of_string] line, or [use <proc> <name>],
    [send <sender> <receiver> <name>], [read <reader> <path> <name>].
    Blank lines and [#] comments are skipped. Returns the plan and the
    1-based source line of each step. *)

val flow_to_string : flow -> string
val role_to_string : role -> string
val step_to_string : step -> string
val pp_plan : Format.formatter -> plan -> unit
val pp_outcome : Format.formatter -> outcome -> unit
