(** Chaos harness: coherence of the replicated name service under
    injected failure.

    A chaos run builds a {!Nameserver} cluster over a faulty {!Network}
    (message loss, duplication, a partition window, a crash/restart
    cycle), drives a randomised write workload through {!Rpc.call_retry}
    clients, and samples {!Naming.Coherence.measure} over simulated
    time. The interesting outputs are the coherence-degree time series —
    full, degraded while replicas diverge, full again — and the time it
    takes anti-entropy to reconverge the replicas after the last fault
    heals. Everything is driven by one seed: the same seed produces the
    same run, sample for sample and byte for byte in {!to_json}. *)

type config = {
  seed : int;
  replicas : int;
  drop : float;  (** per-message loss probability *)
  duplicate : float;  (** per-message duplication probability *)
  partition_at : float;
  partition_for : float;  (** window length; [0.] disables the partition *)
  crash_at : float;
  crash_for : float;  (** downtime of the crashed replica; [0.] disables *)
  writes : int;  (** client write operations *)
  write_window : float;  (** writes are issued in [\[0; write_window)] *)
  call_timeout : float;  (** client per-attempt timeout *)
  call_attempts : int;
  ae_period : float;  (** anti-entropy period *)
  ae_timeout : float;
  ae_attempts : int;
  sample_every : float;  (** coherence sampling period *)
  duration : float;  (** total simulated time *)
  dedup_window : int option;
      (** per-caller dedup memory bound at each replica (see
          {!Rpc.create}); [None] = unbounded *)
  mode : Nameserver.mode;  (** consistency tier; default [`Lww_ae] *)
  leader_kill_at : float;
  leader_kill_for : float;
      (** downtime of whoever leads at [leader_kill_at]; [0.] disables
          the fault ([`Leader_log] only) *)
  partition_leader : bool;
      (** [`Leader_log] only: instead of static halves, the partition
          cuts whoever leads at [partition_at] (plus its client) off
          alone — the minority-leader deposition scenario *)
  txn_deadline : float;
      (** [`Leader_log] only: overall client budget per transaction; a
          transaction still undecided when it expires is recorded as
          unknown *)
}

val default : config
(** 3 replicas, 5% drop, 5% duplication, partition over [\[10; 30)],
    replica crash over [\[15; 25)], 32 writes in [\[0; 30)], anti-entropy
    every 2.0, sampling every 2.0, duration 80, seed 42, [`Lww_ae] mode
    (leader-kill disabled, [txn_deadline] 20.0). *)

val mode_to_string : Nameserver.mode -> string
(** ["lww"] / ["leader"] — the schedule-JSON and CLI spelling. *)

val mode_of_string : string -> Nameserver.mode option
(** Accepts ["lww"], ["lww-ae"], ["leader"], ["leader-log"]. *)

type sample = {
  time : float;
  report : Naming.Coherence.report;
  converged : bool;  (** version vectors equal at sample time *)
}

type result = {
  config : config;
  samples : sample list;  (** in time order *)
  final_report : Naming.Coherence.report;
  converged : bool;  (** the run's verdict: replicas reconverged *)
  heal_at : float;  (** when the last scheduled fault healed *)
  converge_time : float option;
      (** first sample time ≥ [heal_at] with converged vectors and full
          coherence degree *)
  rounds_to_converge : int option;
      (** [converge_time - heal_at] in anti-entropy periods (ceiling) *)
  writes_sent : int;
  writes_acked : int;  (** in [`Leader_log] mode: committed txns *)
  writes_nacked : int;  (** in [`Leader_log] mode: aborted txns *)
  writes_lost : int;
      (** retry budgets exhausted; in [`Leader_log] mode: txns whose
          outcome stayed unknown *)
  txns_committed : int;  (** [`Leader_log] only; 0 under [`Lww_ae] *)
  txns_aborted : int;
  txns_unknown : int;
      (** txn deadlines expired (or run ended) before a decision *)
  latency_mean : float;
      (** mean client-visible success latency: write→ack under
          [`Lww_ae], submit→committed under [`Leader_log]; 0 when
          nothing succeeded *)
  latency_max : float;
  net : Network.stat Counters.snapshot;
  server_rpc : Rpc.stat Counters.snapshot;
      (** summed over the replica endpoints *)
  client_rpc : Rpc.stat Counters.snapshot;
      (** summed over the client endpoints *)
  ns : Nameserver.stat Counters.snapshot;
  events : int;  (** engine events executed *)
}

val run :
  ?jobs:int ->
  ?writes:(float * int * Nameserver.request) list ->
  config:config ->
  spec:Nameserver.spec ->
  probes:Naming.Name.t list ->
  unit ->
  result
(** Runs one chaos schedule against a cluster built from [spec],
    sampling coherence over [probes]. [jobs] fans each coherence sample
    over the {!Naming.Pool} (identical results at any job count).
    [writes] overrides the workload — [(time, client, request)] triples,
    default {!planned_writes} — so a crafted workload can be replayed
    exactly; the network, cluster and fault schedules are unchanged. *)

(** {1 Schedule introspection}

    Pure functions of the config (and spec) that {!run} itself lays its
    faults, write workload and sampling grid out with, so static
    analyzers can reason about a schedule without executing it. *)

val planned_writes :
  config -> Nameserver.spec -> (float * int * Nameserver.request) list
(** The exact write workload {!run} would issue for this config and
    spec: [(time, client, request)] triples drawn from the seed's write
    stream. Empty when the spec has no links or no leaves. *)

val partition_sides : config -> (int list * int list) option
(** The two replica-id groups the partition window separates (clients
    are partitioned with their home replica), or [None] when the config
    schedules no partition. With [partition_leader] the static halves
    are {e not} what runs — see {!partition_side_sizes}. *)

val partition_side_sizes : config -> (int * int) option
(** The sizes of the two partition sides. For a [partition_leader]
    schedule the membership is decided at partition time (the leader
    alone vs everyone else) but the sizes [(1, replicas - 1)] are
    static — enough for majority-loss arithmetic. *)

val crash_victim : config -> int option
(** The replica whose node crashes over [\[crash_at; crash_at +
    crash_for)], or [None] when no crash is scheduled. *)

val leader_kill_window : config -> (float * float) option
(** The [\[leader_kill_at; leader_kill_at + leader_kill_for)] downtime
    window of the dynamically-chosen leader victim, or [None] when the
    fault is disabled (always [None] under [`Lww_ae]). *)

val heal_time : config -> float
(** When the last scheduled fault heals ([0.] for a fault-free
    schedule) — the [heal_at] the run will report, even when it lies
    beyond [duration] (a fault that never heals in-run). *)

val sample_times : config -> float list
(** The coherence sampling instants, in order: [k * sample_every] for
    [k >= 1] while within [duration]. *)

val ae_first_tick : config -> int -> float
(** When replica [i]'s first anti-entropy pull fires (subsequent ticks
    follow every [ae_period]): {!Nameserver.first_tick} at
    [ae_period]. *)

(** {1 Explicit schedules}

    A schedule pins down everything {!run} otherwise derives from the
    seed: the full fault config plus the exact write workload. The JSON
    form is the exchange format between the adversarial schedule
    explorer ({!Analysis.Explore}) and [namingctl chaos --schedule]: a
    witness the explorer emits replays verbatim. *)

type schedule = {
  config : config;
  writes : (float * int * Nameserver.request) list;
      (** [(time, client, request)] triples; {!Nameserver.Write}
          requests only *)
}

val schedule_to_json : schedule -> string
(** Canonical JSON rendering of a schedule. Floats print in their
    shortest exact decimal form ({!Naming.Json.to_string}), so
    {!schedule_of_json} recovers the exact values and re-rendering the
    parse is byte-identical.
    @raise Invalid_argument when the workload contains a non-write
    request. *)

val schedule_of_json : string -> (schedule, string) Stdlib.result
(** Parses {!schedule_to_json}'s format (version 1). Every config field
    present in the original format is required; the mode and
    leader-fault fields ([mode], [leader_kill_at], [leader_kill_for],
    [partition_leader], [txn_deadline]) default to the values earlier
    schedules in fact ran with ([`Lww_ae], leader-kill disabled), so
    witness files from before the leader tier parse and replay
    unchanged. Write paths are re-rooted with
    {!Naming.Name.prepend_root}; client ids must lie in
    [\[0; replicas)] and [drop] and [duplicate] in [\[0; 1\]].
    [Error msg] pinpoints the first problem. *)

val run_schedule :
  ?jobs:int ->
  spec:Nameserver.spec ->
  probes:Naming.Name.t list ->
  schedule ->
  result
(** [run_schedule ~spec ~probes s] is
    [run ~writes:s.writes ~config:s.config ~spec ~probes ()]: replays
    the schedule exactly. *)

val report_json : scheme:string -> result -> Naming.Json.t
(** The run as a JSON tree; the same for runs of the same seed and
    spec, at any [jobs]. Times print to 3 decimals, probabilities,
    degrees and latencies to 4, as they always have. *)

val to_json : scheme:string -> result -> string
(** {!report_json} as a self-contained, pretty-printed document. *)

val pp_summary : scheme:string -> Format.formatter -> result -> unit
(** Human-readable run summary: the coherence time series and the
    convergence verdict. *)
