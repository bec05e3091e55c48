(** A simulated message network between machines.

    Machines (nodes) host endpoints bound to ports; messages are delivered
    through the {!Engine} after a configurable latency, with optional drop,
    duplication and partitions — enough misbehaviour to exercise the
    name-exchange scenarios of the paper under realistic conditions. *)

type node_id = int

type address = { node : node_id; port : int }

type 'a envelope = {
  src : address;
  dst : address;
  payload : 'a;
  sent_at : float;
  delivered_at : float;
}

type config = {
  latency : float;  (** base one-way latency between distinct nodes *)
  jitter : float;  (** uniform extra latency in [0; jitter) *)
  local_latency : float;  (** latency between endpoints on one node *)
  drop_probability : float;
  duplicate_probability : float;
}

val default_config : config
(** latency 1.0, jitter 0.2, local 0.01, no drops, no duplicates. *)

type 'a t

val create : ?config:config -> engine:Engine.t -> rng:Rng.t -> unit -> 'a t
val engine : 'a t -> Engine.t
val add_node : 'a t -> label:string -> node_id
val node_label : 'a t -> node_id -> string
val nodes : 'a t -> node_id list

val bind : 'a t -> address -> ('a envelope -> unit) -> unit
(** Registers the handler for messages addressed to [address], replacing
    any previous one. @raise Invalid_argument for an unknown node. *)

val unbind : 'a t -> address -> unit
val is_bound : 'a t -> address -> bool

val send : 'a t -> src:address -> dst:address -> 'a -> unit
(** Queues a message. Delivery (or loss) happens when the engine runs. A
    message to an unbound address at delivery time counts as
    undeliverable. *)

val set_node_up : 'a t -> node_id -> bool -> unit
(** Crash (false) or restart (true) a machine. Messages sent from or to a
    down node are lost at send time; messages already in flight toward a
    node that crashes before delivery are lost at delivery time. Both are
    counted in [node_down]. Endpoint bindings survive a crash — a
    restarted machine answers again, which is what lets experiments model
    crash/recovery without rebuilding actors. *)

val node_is_up : 'a t -> node_id -> bool

val partition : 'a t -> node_id list -> node_id list -> unit
(** Severs communication between the two groups (both directions).
    Messages across the cut are dropped at send time and counted. *)

val heal : 'a t -> unit
(** Removes all partitions. *)

type stat
(** Tags the network's counter keys; {!stats} reports them in this
    order. *)

val sent : stat Counters.key
val delivered : stat Counters.key
val dropped : stat Counters.key (** random loss *)

val cut : stat Counters.key (** lost to a partition *)

val node_down : stat Counters.key (** lost because a machine was down *)

val undeliverable : stat Counters.key (** no handler bound at delivery *)

val duplicated : stat Counters.key
val stats : 'a t -> stat Counters.snapshot

val pp_address : Format.formatter -> address -> unit
