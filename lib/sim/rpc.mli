(** Request/response messaging over the simulated {!Network}.

    The paper's name-exchange scenarios are client/server interactions
    ("process identifiers are exchanged between client and server
    processes in the Waterloo Port system"). This module provides the
    request/response plumbing: correlation of replies to calls, timeouts
    for requests whose reply was lost, retries with exponential backoff
    for surviving a faulty network, and server-side request
    deduplication so a retried or duplicated request is applied at most
    once. *)

type ('req, 'resp) message
(** The wire type: carry it as the network payload. *)

type ('req, 'resp) endpoint

val create :
  ('req, 'resp) message Network.t ->
  node:Network.node_id ->
  port:int ->
  ?handler:('req -> 'resp option) ->
  ?dedup:bool ->
  ?dedup_window:int ->
  unit ->
  ('req, 'resp) endpoint
(** Binds an endpoint. [handler] serves incoming requests (return [None]
    to drop a request silently — simulating a server-side failure);
    endpoints without a handler are pure clients, and count unserved
    requests.

    With [dedup] (default false), the endpoint remembers every request
    id it has answered, per caller: a duplicate of an already-served
    request — a network duplicate or a client retry whose original
    answer was lost — is answered by resending the remembered response
    {e without} invoking the handler again. This is what makes
    non-idempotent requests (binds, unbinds) safe to retry. Declined
    requests ([handler _ = None]) are not remembered, so a retry of a
    declined request is offered to the handler again.

    [dedup_window] (default unbounded) caps the per-caller dedup memory:
    once a caller has more than [dedup_window] remembered answers, the
    oldest entries are evicted first-in first-out. A late duplicate of
    an evicted request is offered to the handler {e again} — exactly-once
    degrades to at-least-once, which is precisely the failure mode the
    NG206 analyzer diagnostic warns about. *)

val address : ('req, 'resp) endpoint -> Network.address
val set_handler : ('req, 'resp) endpoint -> ('req -> 'resp option) -> unit

val call :
  ('req, 'resp) endpoint ->
  to_:Network.address ->
  timeout:float ->
  'req ->
  on_reply:(('resp, [ `Timeout | `Unavailable ]) result -> unit) ->
  unit
(** Sends a request; [on_reply] fires exactly once — with the response,
    or with [Error `Timeout] after [timeout] simulated time units
    ({!call} itself never reports [`Unavailable]; the error type is
    shared with {!call_retry} so handlers compose). A response arriving
    after the timeout is counted in {!late_replies} and
    discarded. *)

val call_retry :
  ('req, 'resp) endpoint ->
  to_:Network.address ->
  timeout:float ->
  ?backoff:float ->
  ?jitter:float ->
  ?deadline:float ->
  rng:Rng.t ->
  attempts:int ->
  'req ->
  on_reply:(('resp, [ `Timeout | `Unavailable ]) result -> unit) ->
  unit
(** Like {!call}, but the request is retransmitted (with the {e same}
    request id, so a deduplicating server applies it at most once) each
    time an attempt times out, up to [attempts] total attempts. Attempt
    [k] (counting from 0) waits [timeout * backoff^k] time units plus a
    uniform random extra in [0; jitter * wait) drawn from [rng] — fully
    deterministic for a seeded generator. Defaults: [backoff = 2.0],
    [jitter = 0.1].

    [on_reply] fires exactly once: [Ok] on the first response to any
    attempt, [Error `Timeout] when the budget is exhausted (counted in
    {!exhausted}; every expired attempt is also counted in
    {!timeouts}, every retransmission in {!retries}). A
    response arriving after exhaustion counts as a late reply.

    [deadline] is an overall per-call budget, in simulated time from the
    call: an attempt whose wait would run past the deadline waits only
    the remaining budget, and the call then terminates with
    [Error `Unavailable] (counted in {!unavailable}, {e not} in
    {!exhausted}) instead of burning the rest of the attempt
    schedule — the caller-visible signal for a known-dead destination.
    Without [deadline] the behaviour (and the rng stream) is unchanged.
    @raise Invalid_argument when [attempts < 1] or [deadline <= 0]. *)

val pending : ('req, 'resp) endpoint -> int
(** Calls still awaiting a reply or timeout. Retries do not create new
    pending entries: one logical call is one entry until it is answered
    or exhausted. *)

val retry_schedule :
  timeout:float ->
  ?backoff:float ->
  ?jitter:float ->
  attempts:int ->
  unit ->
  (float * float) array * (float * float)
(** Static bounds on {!call_retry}'s retransmission schedule, for
    analyzers that reason about the protocol without executing it.
    Returns [(sends, exhaust)]: [sends.(k)] bounds the send time of
    attempt [k] relative to the call (attempt 0 at time 0), and
    [exhaust] bounds the instant the retry budget runs out. Bounds are
    exact for the implementation above: attempt [k] waits
    [timeout * backoff^k] plus a jitter in [0; jitter * wait). Defaults
    match {!call_retry}.
    @raise Invalid_argument when [attempts < 1]. *)

type stat
(** Tags an endpoint's counter keys; {!stats} reports them in this
    order. *)

val calls : stat Counters.key (** {!call} and {!call_retry} invocations *)

val replies : stat Counters.key
val timeouts : stat Counters.key (** expired attempts, retried or not *)

val retries : stat Counters.key (** retransmissions by {!call_retry} *)

val exhausted : stat Counters.key (** {!call_retry} budgets run out *)

val unavailable : stat Counters.key
(** {!call_retry} calls cut short by their [deadline]: the terminal
    [Error `Unavailable] outcomes *)

val served : stat Counters.key (** requests the handler answered *)

val dedup_hits : stat Counters.key
(** duplicates answered from the dedup memory, not the handler *)

val dropped_requests : stat Counters.key
(** requests the handler declined or had no handler *)

val late_replies : stat Counters.key (** responses after their timeout *)

val stats : ('req, 'resp) endpoint -> stat Counters.snapshot
