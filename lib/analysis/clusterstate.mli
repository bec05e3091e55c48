(** Abstract interpretation of the replicated name service.

    Consumes a {!Dsim.Nameserver.spec}, a {!Dsim.Chaos.config} fault
    schedule and a replicated write workload, and computes — without
    executing the simulator — three-valued verdicts about every
    execution of that schedule: per-write acceptance ([Must]/[May]/
    [Never]) with time bounds, Lamport-stamp intervals, and a
    may-propagation (happens-before) relation over writes widened
    across anti-entropy rounds.

    The soundness contract every {!Replpasses} error diagnostic rests
    on: a [Must] fact holds in {e every} execution of the schedule, a
    [Never]/impossibility fact rules a behaviour out of every
    execution. The propagation relation deliberately over-approximates
    (it ignores the pull-request leg and the random peer choice), so
    impossibility claims — and hence the error diagnostics — stay
    conservative. *)

type tri = Must | May | Never

val tri_to_string : tri -> string

type write = {
  index : int;  (** position in the workload *)
  time : float;  (** client issue time *)
  origin : int;  (** client = home replica id *)
  path : Naming.Name.t;  (** absolute (root-prepended) directory path *)
  atom : Naming.Name.atom;
  target : string option;
  nacked : bool;  (** statically Nack'd: unknown directory or leaf key *)
  applies : tri;  (** does the home replica accept and apply the op? *)
  accept : float * float;
      (** acceptance-instant bounds: for [Must] writes acceptance
          provably happens inside this interval; for [May] writes the
          upper bound is the latest possible acceptance *)
  stamp : int * int;  (** Lamport-stamp bounds at acceptance *)
  lost_in_crash : bool;
      (** provably lost: every retransmission lands inside the home
          replica's crash window and the retry budget exhausts in-run *)
}

type t = {
  config : Dsim.Chaos.config;
  spec : Dsim.Nameserver.spec;
  writes : write array;
  sides : (int list * int list) option;  (** partition sides *)
  partition : (float * float) option;  (** partition window *)
  crash : (int * float * float) option;  (** victim, crash window *)
  heal_at : float;
  samples : float array;  (** coherence sampling instants *)
  lat : float * float;  (** one-way latency bounds between distinct nodes *)
  sends : (float * float) array;  (** client attempt send offsets *)
  exhaust : float * float;  (** client retry-budget exhaustion offsets *)
  duration : float;
  reach : float array array;
      (** the arrival rows: [reach.(i).(d)] is the earliest instant
          write [i]'s op, applied at its lower acceptance bound, could
          reach replica [d] by any chain of {!transfer} hops ([infinity]:
          none does); a lower bound when finite, an impossibility proof
          past [duration] *)
}

(** {1 The spec index} *)

val path_key : Naming.Name.t -> string
(** The absolute (root-prepended) rendering of a spec path: the key of
    a directory in every replica's table. *)

type index = {
  known_dir : Naming.Name.t -> bool;  (** a spec directory, or the root *)
  known_leaf : string -> bool;  (** a spec leaf key *)
}

val index : Dsim.Nameserver.spec -> index
(** What every replica of the spec knows: a write to an unknown
    directory or leaf key is Nack'd on every replica. *)

val split : Naming.Name.t -> (Naming.Name.t * Naming.Name.atom) option
(** The absolute parent directory and final atom of a spec path; [None]
    for the root. *)

(** {1 Interpretation} *)

val of_chaos :
  ?workload:(float * int * Dsim.Nameserver.request) list ->
  Dsim.Chaos.config ->
  Dsim.Nameserver.spec ->
  t
(** Interprets the schedule. [workload] defaults to
    {!Dsim.Chaos.planned_writes} — the exact workload a chaos run of
    this config and spec would issue; non-write requests are ignored. *)

val writes : t -> write list
val applied : write -> bool
(** The op possibly exists: [applies <> Never] and not [nacked]. *)

val key : write -> string * string
(** The LWW key the write targets: (directory path, atom). *)

val write_name : write -> Naming.Name.t
(** The absolute name the write binds. *)

val write_str : write -> string
(** ["write #i (nsO t=T /path→key)"], as every diagnostic quotes it. *)

val same_side : t -> int -> int -> bool
(** Whether two replicas are on the same partition side (always true
    without a partition). *)

val transfer : t -> int -> int -> float -> float
(** [transfer t p d hp]: the earliest instant a pull response from [p],
    holding the op since [hp], could be applied at [d]. *)

val arrivals : t -> origin:int -> from_:float -> float array
(** The arrival row of an op applied at [origin] at [from_], as in
    [reach]: every pull edge relaxed until a round changes nothing. *)

val must_concurrent : t -> write -> write -> bool
(** Provably concurrent: in no execution can either write's op have
    reached the other's origin before the other was accepted. *)

val stamps_may_tie : write -> write -> bool
(** The two stamp intervals overlap across distinct origins, so the
    LWW winner may be decided only by the origin-id tiebreak. *)

(** {1 The error facts}

    Each is a Must/Never claim about every execution of the schedule,
    so a chaos replay of it must exhibit the failure. [check-cluster]
    renders them as NG201-NG204; the explorer ranks candidate schedules
    by them. *)

type stale = {
  window : string;  (** ["partition"] or ["crash"] *)
  bounds : float * float;  (** the fault window *)
  replica : int;  (** the provably stale replica *)
  write : write;  (** the update it cannot have seen *)
  sample : int;  (** index of the latest blocked sample *)
  time : float;  (** its sample instant *)
  count : int;  (** blocked samples inside the window *)
}

type facts = {
  races : (write * write) list;
      (** [Must]/[Must] pairs updating one key to different targets
          that are {!must_concurrent}, in workload order [(i, j)] with
          [i < j] *)
  holes : write list;
      (** writes whose every retransmission lands inside the home
          replica's crash window ([lost_in_crash]) *)
  cuts : (write * int) list;
      (** per replica, in id order: the first [Must] write that can
          never reach it *)
  stales : stale list;
      (** per partition or crash window that closes in-run and lasts
          at least the staleness bound: the first isolated (replica,
          write) pair, in replica then workload order, with a sample
          inside the window the op provably cannot have reached the
          replica by *)
}

val facts : rounds:int -> t -> facts
(** [rounds] is the staleness bound in anti-entropy periods. *)

val reconverge_provable : ?rounds:int -> t -> bool
(** Whether reconvergence is provable within [rounds] (default 2)
    anti-entropy rounds after the last fault heals and the last write
    lands: only with two replicas (deterministic peer choice) and a
    loss-free network does any finite round budget constitute a
    proof. *)

val divergence_possible : t -> bool
(** Some execution could leave replicas diverged at least transiently:
    an op possibly exists and the schedule has faults. *)

val majority : t -> int
(** The write-quorum size under [`Leader_log]: [replicas/2 + 1]. *)

val no_quorum_windows : t -> (float * float) list
(** Maximal intervals of the run during which the fault schedule
    provably denies a write quorum under [`Leader_log] — in every
    execution, no connected side of the cluster has [majority] live
    replicas, so no transaction can commit and no leader election can
    complete. Quantifies over the statically-unknown fault targets
    (which replica the leader-kill takes down, which replica a
    [partition_leader] cut isolates): an interval is reported only when
    every choice denies quorum. Empty for [`Lww_ae] schedules. Windows
    are disjoint, sorted, and clipped to [0, duration]. *)

val outcome_unknown_horizon : t -> write -> (float * float) option
(** The no-quorum window that swallows the write's whole transaction
    budget, when one does: the write is issued inside the window and
    its [txn_deadline] expires before the window ends, so in every
    execution the client can observe neither [Committed] nor [Aborted]
    by its deadline and must report the outcome unknown. [None] for
    [`Lww_ae] schedules. *)
