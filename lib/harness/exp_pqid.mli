(** Experiment E7 — section 6, Example 1: partially qualified identifiers.

    Two parts. (1) {e Reconfiguration}: processes hold connections to other
    processes, storing either a fully qualified pid (the conventional
    baseline) or a minimally qualified one (the paper's scheme); random
    machine/network renumberings are applied and connection survival is
    measured after each. Paper: partially qualified pids of processes
    local to the renamed machine or network remain valid, so subsystems
    keep their internal connections; fully qualified pids break. (2)
    {e Transit mapping}: pids embedded in messages are exchanged over the
    simulated network with and without the R(sender) remapping. Paper:
    with mapping the receiver always reaches the intended process; without
    it, only when sender and receiver happen to share enough context. *)

type survival_point = {
  ops_applied : int;
  full_valid : float;  (** fully-qualified baseline *)
  partial_valid : float;  (** paper's partially-qualified pids *)
  partial_local_valid : float;
      (** partial pids whose holder and target share a machine or
          network — the paper's "internal connections" *)
  partial_same_machine_valid : float;
      (** partial pids within a single machine: the paper's strongest
          claim — these survive every renumbering *)
}

type transit_result = {
  messages : int;
  mapped_correct : float;
  unmapped_correct : float;
}

type result = { survival : survival_point list; transit : transit_result }

val measure : ?seed:int64 -> unit -> result
(** Three connections per process and eight renumberings, drawn from
    [seed] (default 42). *)

val run : Format.formatter -> unit
