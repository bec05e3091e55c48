(** Ablation A3 — the boundary of the PQID survival claim.

    Section 6, Example 1 claims survival under {e renaming} of machines
    and networks: the processes keep their places, only the addresses of
    the enclosing containers change. Process {e migration} is different —
    the process's own local address may change — and the paper makes no
    survival claim for it. This ablation verifies both sides of the
    boundary: under renumbering, machine-local pids survive (1.0
    throughout); once processes migrate, even machine-local pids break,
    and only fresh resolution (re-qualification) recovers. *)

type point = {
  ops_applied : int;
  renumber_only : float;  (** machine-local pids, renumber workload *)
  with_migrations : float;
      (** machine-local pids, workload that also migrates processes *)
}

type result = {
  series : point list;
  fresh_pids_always_work : bool;
      (** after everything, re-qualified pids all resolve *)
}

val measure : unit -> result
(** Eight operations from seed 42, with both workloads drawing from one
    generator. *)

val run : Format.formatter -> unit
