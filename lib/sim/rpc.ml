type ('req, 'resp) message =
  | Request of { id : int; payload : 'req }
  | Response of { id : int; payload : 'resp }

type ('req, 'resp) pending_call = {
  on_reply : ('resp, [ `Timeout | `Unavailable ]) result -> unit;
  mutable timeout_handle : Engine.handle option;
      (* [None] only until [call_retry] arms its first attempt *)
}

type stat

let schema : stat Counters.schema = Counters.schema ()
let calls = Counters.key schema "calls"
let replies = Counters.key schema "replies"
let timeouts = Counters.key schema "timeouts"
let retries = Counters.key schema "retries"
let exhausted = Counters.key schema "exhausted"
let unavailable = Counters.key schema "unavailable"
let served = Counters.key schema "served"
let dedup_hits = Counters.key schema "dedup_hits"
let dropped_requests = Counters.key schema "dropped_requests"
let late_replies = Counters.key schema "late_replies"

(* Dedup memory: one answered-request table per caller address, keyed by
   the caller's request id. Ids are never reused by an endpoint, so an
   entry stays valid for the whole run — unless a [dedup_window] bounds
   the per-caller memory, in which case the oldest entries are evicted
   FIFO and a late duplicate of an evicted request is re-offered to the
   handler (the exactly-once guarantee degrades to at-least-once). *)
module Caller_tbl = Hashtbl.Make (struct
  type t = Network.address

  let equal (a : Network.address) b =
    Int.equal a.Network.node b.Network.node
    && Int.equal a.Network.port b.Network.port

  let hash (a : Network.address) = (a.Network.node * 65599) + a.Network.port
end)

type ('req, 'resp) endpoint = {
  network : ('req, 'resp) message Network.t;
  address : Network.address;
  mutable handler : ('req -> 'resp option) option;
  dedup : bool;
  dedup_window : int option;
  answered : (int, 'resp) Hashtbl.t Caller_tbl.t;
  answered_order : int Queue.t Caller_tbl.t;
  pending_calls : (int, ('req, 'resp) pending_call) Hashtbl.t;
  mutable next_id : int;
  counters : stat Counters.t;
}

let respond t ~to_ ~id payload =
  Network.send t.network ~src:t.address ~dst:to_ (Response { id; payload })

let receive t envelope =
  match envelope.Network.payload with
  | Request { id; payload } -> (
      let src = envelope.Network.src in
      let remembered =
        if t.dedup then
          match Caller_tbl.find_opt t.answered src with
          | Some per_caller -> Hashtbl.find_opt per_caller id
          | None -> None
        else None
      in
      match remembered with
      | Some response ->
          Counters.incr t.counters dedup_hits;
          respond t ~to_:src ~id response
      | None -> (
          match t.handler with
          | None -> Counters.incr t.counters dropped_requests
          | Some handler -> (
              match handler payload with
              | None -> Counters.incr t.counters dropped_requests
              | Some response ->
                  Counters.incr t.counters served;
                  if t.dedup then begin
                    let per_caller =
                      match Caller_tbl.find_opt t.answered src with
                      | Some tbl -> tbl
                      | None ->
                          let tbl = Hashtbl.create 16 in
                          Caller_tbl.replace t.answered src tbl;
                          tbl
                    in
                    (match t.dedup_window with
                    | Some window when not (Hashtbl.mem per_caller id) ->
                        let order =
                          match Caller_tbl.find_opt t.answered_order src with
                          | Some q -> q
                          | None ->
                              let q = Queue.create () in
                              Caller_tbl.replace t.answered_order src q;
                              q
                        in
                        while Hashtbl.length per_caller >= max 1 window do
                          match Queue.take_opt order with
                          | Some old -> Hashtbl.remove per_caller old
                          | None -> Hashtbl.reset per_caller
                        done;
                        Queue.push id order
                    | _ -> ());
                    Hashtbl.replace per_caller id response
                  end;
                  respond t ~to_:src ~id response)))
  | Response { id; payload } -> (
      match Hashtbl.find_opt t.pending_calls id with
      | None -> Counters.incr t.counters late_replies
      | Some call ->
          Hashtbl.remove t.pending_calls id;
          Option.iter
            (Engine.cancel (Network.engine t.network))
            call.timeout_handle;
          Counters.incr t.counters replies;
          call.on_reply (Ok payload))

let create network ~node ~port ?handler ?(dedup = false) ?dedup_window () =
  let t =
    {
      network;
      address = { Network.node; port };
      handler;
      dedup;
      dedup_window;
      answered = Caller_tbl.create 4;
      answered_order = Caller_tbl.create 4;
      pending_calls = Hashtbl.create 16;
      next_id = 0;
      counters = Counters.create schema;
    }
  in
  Network.bind network t.address (receive t);
  t

let address t = t.address
let set_handler t h = t.handler <- Some h

let call t ~to_ ~timeout payload ~on_reply =
  let id = t.next_id in
  t.next_id <- id + 1;
  Counters.incr t.counters calls;
  let timeout_handle =
    Engine.schedule (Network.engine t.network) ~delay:timeout (fun () ->
        if Hashtbl.mem t.pending_calls id then begin
          Hashtbl.remove t.pending_calls id;
          Counters.incr t.counters timeouts;
          on_reply (Error `Timeout)
        end)
  in
  Hashtbl.replace t.pending_calls id
    { on_reply; timeout_handle = Some timeout_handle };
  Network.send t.network ~src:t.address ~dst:to_ (Request { id; payload })

let call_retry t ~to_ ~timeout ?(backoff = 2.0) ?(jitter = 0.1) ?deadline ~rng
    ~attempts payload ~on_reply =
  if attempts < 1 then invalid_arg "Rpc.call_retry: attempts < 1";
  (match deadline with
  | Some d when d <= 0.0 -> invalid_arg "Rpc.call_retry: deadline <= 0"
  | _ -> ());
  let id = t.next_id in
  t.next_id <- id + 1;
  Counters.incr t.counters calls;
  let engine = Network.engine t.network in
  let send_request () =
    Network.send t.network ~src:t.address ~dst:to_ (Request { id; payload })
  in
  (* One pending entry for the whole logical call; each expired attempt
     swaps in the next attempt's timeout handle. The same request id is
     reused on every retransmission so a deduplicating server applies
     the request at most once no matter how many copies arrive.
     [elapsed] accumulates the jittered waits already spent, so an
     overall [deadline] can cut the schedule short: an attempt that
     cannot complete before the deadline waits only the remaining budget
     and then terminates the call with [Error `Unavailable]. *)
  let rec arm call attempt elapsed =
    let wait = timeout *. (backoff ** float_of_int attempt) in
    let wait = wait +. Rng.float rng (jitter *. wait) in
    match deadline with
    | Some d when elapsed +. wait >= d ->
        let remaining = Float.max 0.0 (d -. elapsed) in
        call.timeout_handle <-
          Some
            (Engine.schedule engine ~delay:remaining (fun () ->
                 if Hashtbl.mem t.pending_calls id then begin
                   Hashtbl.remove t.pending_calls id;
                   Counters.incr t.counters timeouts;
                   Counters.incr t.counters unavailable;
                   on_reply (Error `Unavailable)
                 end))
    | _ ->
        call.timeout_handle <-
          Some
            (Engine.schedule engine ~delay:wait (fun () ->
                 if Hashtbl.mem t.pending_calls id then begin
                   Counters.incr t.counters timeouts;
                   if attempt + 1 < attempts then begin
                     Counters.incr t.counters retries;
                     send_request ();
                     arm call (attempt + 1) (elapsed +. wait)
                   end
                   else begin
                     Hashtbl.remove t.pending_calls id;
                     Counters.incr t.counters exhausted;
                     on_reply (Error `Timeout)
                   end
                 end))
  in
  let call = { on_reply; timeout_handle = None } in
  Hashtbl.replace t.pending_calls id call;
  send_request ();
  arm call 0 0.0

let pending t = Hashtbl.length t.pending_calls

(* Static bounds on the retry schedule of [call_retry], for analyzers
   that reason about the protocol without running it. Must mirror the
   [arm] arithmetic above: attempt [k] waits [timeout * backoff^k]
   plus jitter in [0; jitter * wait). *)
let retry_schedule ~timeout ?(backoff = 2.0) ?(jitter = 0.1) ~attempts () =
  if attempts < 1 then invalid_arg "Rpc.retry_schedule: attempts < 1";
  let wait k = timeout *. (backoff ** float_of_int k) in
  let sends = Array.make attempts (0.0, 0.0) in
  let lo = ref 0.0 and hi = ref 0.0 in
  for k = 0 to attempts - 1 do
    sends.(k) <- (!lo, !hi);
    let w = wait k in
    lo := !lo +. w;
    hi := !hi +. (w *. (1.0 +. jitter))
  done;
  (sends, (!lo, !hi))

let stats t = Counters.snapshot t.counters
