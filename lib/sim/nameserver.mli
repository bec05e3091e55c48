(** A replicated, fault-tolerant name service over the simulated network.

    Each replica serves resolve/bind/unbind over {!Rpc} from its own
    mirror of a common directory tree, all mirrors living in one shared
    {!Naming.Store} so the repo's coherence machinery applies unchanged:
    the mirror directories of one logical path form a replica group
    ({!Naming.Replication}), and {!measure} runs {!Naming.Coherence}
    with replica equivalence — a live implementation of the paper's §5
    weak coherence. Leaf objects are shared between mirrors, so a name
    that denotes a file is {e strictly} coherent when the replicas
    agree, while a name that denotes a directory is only ever {e weakly}
    coherent (each replica answers with its own mirror).

    Writes are versioned update records: every accepted write becomes an
    op stamped with a Lamport clock and a per-origin sequence number.
    Replicas exchange ops by periodic anti-entropy pulls (version-vector
    deltas over {!Rpc.call_retry}) and apply them with last-writer-wins
    ordering on [(stamp, origin)] — a total order, so replicas that have
    seen the same ops hold identical states regardless of delivery
    order, and partitions reconverge after healing. *)

(** {1 Tree specifications} *)

type spec = {
  dirs : Naming.Name.t list;
      (** absolute directory paths to create under the root, parents
          before children (the root itself is implicit) *)
  leaves : (string * string) list;  (** leaf key → diagnostic label *)
  links : (Naming.Name.t * string) list;
      (** absolute leaf path → leaf key; several paths may share one
          key (hard links) *)
}

val split_last : Naming.Name.t -> Naming.Name.t * Naming.Name.atom
(** A path's parent directory (the root for a one-atom path) and last
    atom. @raise Invalid_argument on the empty path. *)

val spec_of_context : Naming.Store.t -> Naming.Context.t -> spec
(** Extracts a tree specification from an existing naming world by
    walking the given root context: context objects become [dirs], other
    objects become shared leaves (deduplicated by identity, so hard
    links survive). Self links ("." ".." "/") are skipped, revisited
    directories (cross-links, cycles) are pruned to keep the result a
    tree. The walk stops at depth 4 and after 512 nodes. *)

(** {1 Consistency modes} *)

type mode = [ `Lww_ae | `Leader_log ]
(** [`Lww_ae] (the default): every replica accepts writes; replicas
    exchange ops by anti-entropy pulls and order them last-writer-wins —
    always available, but concurrent writes to one name race (the NG201
    lost-update class). [`Leader_log]: a Raft-shaped replicated log —
    leader election with term numbers and seeded randomized timeouts,
    append/ack majority commit, follower catch-up by log repair, leader
    failover on crash or partition (a leader that cannot reach a
    majority within an election timeout steps down). Single-name
    histories are linearizable and multi-name actions commit or abort
    as a unit, at the price of an unavailable window whenever no
    majority is reachable. *)

(** {1 The wire protocol} *)

type txn_id = { client : int; tseq : int }
(** Client-chosen transaction identity; [client < 0] is reserved for
    the protocol's internal no-op entries. *)

(** A transactional multi-name action ([`Leader_log] mode): applied in
    committed-log order at every replica, all bindings or none. *)
type action =
  | Bind_group of (Naming.Name.t * Naming.Name.atom * string option) list
      (** bind/unbind several names as a unit; aborts (touching
          nothing) when any directory or leaf key is unknown *)
  | Atomic_rename of {
      src_path : Naming.Name.t;
      src_atom : Naming.Name.atom;
      dst_path : Naming.Name.t;
      dst_atom : Naming.Name.atom;
    }
      (** move whatever [src] denotes to [dst] atomically; aborts when
          [src] is unbound at application time *)

type entry = { eterm : int; txn : txn_id; action : action }
(** One replicated-log entry: the term it was appended in plus the
    transaction. *)

type outcome = Committed | Aborted of string | Pending
(** The replica-visible fate of a transaction. Clients that exhaust
    their polling budget before a decision map the silence to their own
    fourth state, {e unknown}. *)

type request =
  | Resolve of Naming.Name.t
  | Write of {
      path : Naming.Name.t;  (** absolute directory path; [/] for the root *)
      atom : Naming.Name.atom;
      target : string option;  (** leaf key to bind, [None] to unbind *)
    }
  | Pull of int array
      (** caller's version vector: [vec.(o)] = highest sequence number
          from origin [o] the caller has applied *)
  | Submit of { txn : txn_id; action : action }
      (** [`Leader_log] only: append a transaction at the leader;
          resubmissions of a known [txn] are answered without a second
          append (log-level dedup) *)
  | Query of txn_id  (** [`Leader_log] only: poll a transaction's fate *)
  | Request_vote of {
      term : int;
      candidate : int;
      last_idx : int;
      last_term : int;
    }
  | Append_entries of {
      term : int;
      leader : int;
      prev_idx : int;
      prev_term : int;
      entries : entry list;
      commit : int;
    }

type op = {
  origin : int;  (** replica that accepted the write *)
  seq : int;  (** per-origin sequence number, from 1 *)
  stamp : int;  (** Lamport clock at acceptance *)
  path : Naming.Name.t;
  atom : Naming.Name.atom;
  target : string option;
}

type response =
  | Resolved of Naming.Entity.t
  | Ack of { stamp : int }
  | Ops of op list  (** delta, sorted by (origin, seq) *)
  | Nack of string
      (** malformed write: unknown path or leaf key — or a request sent
          to a cluster running in the other consistency mode *)
  | Submitted of { term : int; index : int }
      (** the leader appended the txn at [index] of its [term] log *)
  | Redirect of int option
      (** not the leader; the hint is the last leader this replica
          heard from, when it has one *)
  | Voted of { term : int; granted : bool }
  | Appended of { term : int; ok : bool; matched : int }
  | Outcome_is of outcome

(** {1 Clusters} *)

type t

val create :
  network:(request, response) Rpc.message Network.t ->
  rng:Rng.t ->
  replicas:int ->
  ?mode:mode ->
  ?dedup_window:int ->
  spec ->
  t
(** Builds the shared world and [replicas] server endpoints, one per
    fresh network node (port {!port}), each with request deduplication
    on. [rng] seeds the replicas' independent anti-entropy (or election
    timeout) streams. [mode] selects the consistency tier (default
    [`Lww_ae]). [dedup_window] bounds each replica's per-caller dedup
    memory (see {!Rpc.create}); default unbounded.
    @raise Invalid_argument when [replicas < 2]. *)

val mode : t -> mode

val port : int
(** The well-known port replicas listen on (1). *)

val store : t -> Naming.Store.t

val replicas : t -> int
val replica_node : t -> int -> Network.node_id
val replica_address : t -> int -> Network.address
val replica_root : t -> int -> Naming.Entity.t
val endpoint : t -> int -> (request, response) Rpc.endpoint

val leaf : t -> string -> Naming.Entity.t option
(** The shared leaf object for a spec leaf key. *)

val resolve_at : t -> int -> Naming.Name.t -> Naming.Entity.t
(** Resolve directly against one replica's current mirror (no network). *)

val write_local : t -> int -> request -> response
(** Apply a request at a replica as if it had arrived over RPC (no
    network, no faults) — for tests and for seeding worlds. *)

(** {1 Coherence} *)

val rule : t -> Naming.Rule.t
(** R(a) over one probe activity per replica, each assigned its
    replica's mirror root. *)

val occurrences : t -> Naming.Occurrence.t list
val equiv : t -> Naming.Entity.t -> Naming.Entity.t -> bool
(** Replica equivalence: mirror directories of the same logical path. *)

val measure : ?jobs:int -> t -> Naming.Name.t list -> Naming.Coherence.report
(** {!Naming.Coherence.measure} across the replicas' mirrors under
    {!equiv}, through the store's own engine (writes and anti-entropy
    patch its tables in place): strict coherence for leaf-valued probes,
    weak coherence for directory-valued probes, incoherence while
    replicas diverge.

    The cluster remembers its last result: a call with the same probe
    list (structurally equal) while {!Naming.Store.version} of {!store}
    is unchanged returns the previous report, physically, without
    resolving anything. Any other call measures afresh. Every store
    mutation bumps the version, so direct mutations of [store t] that
    bypass the write path are seen too. The report does not depend on
    [jobs]. *)

val converged : t -> bool
(** [`Lww_ae]: all replicas have applied the same set of ops (version
    vectors equal) — with last-writer-wins ordering this implies
    identical mirror states. [`Leader_log]: all replicas hold the same
    fully-committed, fully-applied log with no uncommitted stragglers —
    again identical mirrors, by determinism of application. *)

(** {1 Leader-log introspection}

    Only {!leader_of} accepts an [`Lww_ae] cluster (it has no leader);
    the others raise [Invalid_argument] on one. *)

val leader_of : t -> int option
(** The live replica currently acting as leader (the highest-term one,
    should a deposed leader linger), if any. *)

val term_at : t -> int -> int
val commit_index : t -> int -> int

val outcome_at : t -> int -> txn_id -> outcome option
(** The fate replica [i] has recorded for [txn], once it has applied
    (or sticky-aborted) it. *)

val committed_log : t -> int -> (txn_id * action) list
(** Replica [i]'s committed log prefix, oldest first (leader no-ops
    included). Agreement means these are prefixes of one another across
    replicas — the property the leader tier's tests check. *)

(** {1 Anti-entropy} *)

val start_anti_entropy :
  ?period:float ->
  ?timeout:float ->
  ?attempts:int ->
  t ->
  unit
(** [`Lww_ae]: schedules a recurring pull per replica: every [period]
    (default 5.0) each live replica asks one peer (chosen from its
    seeded rng) for the ops it lacks, over {!Rpc.call_retry} ([timeout]
    default 2.0, [attempts] default 3). Replicas whose node is down skip
    their tick; ticks are staggered so simultaneous events stay
    deterministic.

    [`Leader_log]: starts the leader protocol instead — [period] is the
    heartbeat interval, replica [i]'s election timeout is drawn from
    [[(2 + i)·period, (2 + i + b)·period)] with backoff [b] = 1, or 2
    after a fruitless election (replica 2 of 3 can wait up to
    [6·period]), and [timeout] bounds each protocol message ([attempts]
    is unused; heartbeats retransmit naturally). *)

val first_tick : period:float -> replicas:int -> int -> float
(** [period·(1 + i/replicas)]: when replica [i]'s first anti-entropy
    tick fires (the leader protocol staggers at [period / 4]). *)

val stop_anti_entropy : t -> unit
(** Stops scheduling new ticks (already-scheduled ones still fire). *)

type stat
(** Tags the cluster's counter keys; {!stats} reports them in this
    order. *)

val writes_accepted : stat Counters.key
(** accepted writes ([`Lww_ae]) or appended client txns ([`Leader_log]) *)

val ops_applied : stat Counters.key
(** op applications across all replicas (incl. origin); in
    [`Leader_log] mode, client entry applications (no-ops excluded) *)

val lww_losses : stat Counters.key
(** ops superseded by a later writer on arrival — always 0 in
    [`Leader_log] mode, which serializes writes instead *)

val pulls : stat Counters.key (** anti-entropy rounds initiated *)

val pull_failures : stat Counters.key (** rounds that exhausted retries *)

val elections : stat Counters.key (** elections started ([`Leader_log]) *)

val txns_committed : stat Counters.key (** distinct client txns committed *)

val txns_aborted : stat Counters.key (** distinct client txns aborted *)

val stats : t -> stat Counters.snapshot
