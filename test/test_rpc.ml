(* Tests for Dsim.Rpc — request/response over the simulated network. *)

module En = Dsim.Engine
module Net = Dsim.Network
module Rpc = Dsim.Rpc
module Ctr = Dsim.Counters

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int

let make ?(config = Net.default_config) () =
  let engine = En.create () in
  let net = Net.create ~config ~engine ~rng:(Dsim.Rng.create 42L) () in
  let n1 = Net.add_node net ~label:"server" in
  let n2 = Net.add_node net ~label:"client" in
  (engine, net, n1, n2)

let test_call_reply () =
  let engine, net, n1, n2 = make () in
  let server =
    Rpc.create net ~node:n1 ~port:1 ~handler:(fun x -> Some (x * 2)) ()
  in
  let client = Rpc.create net ~node:n2 ~port:1 () in
  let got = ref None in
  Rpc.call client ~to_:(Rpc.address server) ~timeout:10.0 21
    ~on_reply:(fun r -> got := Some r);
  check i "pending" 1 (Rpc.pending client);
  ignore (En.run engine);
  check b "reply" true (!got = Some (Ok 42));
  check i "none pending" 0 (Rpc.pending client);
  let s = Rpc.stats client in
  check i "calls" 1 (Ctr.get s Rpc.calls);
  check i "replies" 1 (Ctr.get s Rpc.replies);
  check i "timeouts" 0 (Ctr.get s Rpc.timeouts);
  check i "server served" 1 (Ctr.get (Rpc.stats server) Rpc.served)

let test_timeout_on_loss () =
  let engine, net, n1, n2 =
    make ~config:{ Net.default_config with drop_probability = 1.0 } ()
  in
  let _server =
    Rpc.create net ~node:n1 ~port:1 ~handler:(fun x -> Some x) ()
  in
  let client = Rpc.create net ~node:n2 ~port:1 () in
  let got = ref None in
  Rpc.call client ~to_:{ Net.node = n1; port = 1 } ~timeout:3.0 1
    ~on_reply:(fun r -> got := Some r);
  ignore (En.run engine);
  check b "timeout" true (!got = Some (Error `Timeout));
  check i "timeout counted" 1 (Ctr.get (Rpc.stats client) Rpc.timeouts);
  check b "clock advanced to timeout" true (En.now engine >= 3.0)

let test_handler_drop () =
  let engine, net, n1, n2 = make () in
  let server =
    Rpc.create net ~node:n1 ~port:1 ~handler:(fun _ -> None) ()
  in
  let client = Rpc.create net ~node:n2 ~port:1 () in
  let got = ref None in
  Rpc.call client ~to_:(Rpc.address server) ~timeout:3.0 1 ~on_reply:(fun r ->
      got := Some r);
  ignore (En.run engine);
  check b "timed out" true (!got = Some (Error `Timeout));
  check i "request dropped by handler" 1
    (Ctr.get (Rpc.stats server) Rpc.dropped_requests)

let test_no_handler () =
  let engine, net, n1, n2 = make () in
  let server : (int, int) Rpc.endpoint = Rpc.create net ~node:n1 ~port:1 () in
  let client = Rpc.create net ~node:n2 ~port:1 () in
  Rpc.call client ~to_:(Rpc.address server) ~timeout:2.0 1
    ~on_reply:(fun _ -> ());
  ignore (En.run engine);
  check i "unserved" 1 (Ctr.get (Rpc.stats server) Rpc.dropped_requests);
  (* a handler installed later serves new calls *)
  Rpc.set_handler server (fun x -> Some (x + 1));
  let got = ref None in
  (* the round trip costs ~2.0-2.4 time units; give it room *)
  Rpc.call client ~to_:(Rpc.address server) ~timeout:5.0 1 ~on_reply:(fun r ->
      got := Some r);
  ignore (En.run engine);
  check b "served after set_handler" true (!got = Some (Ok 2))

let test_correlation () =
  let engine, net, n1, n2 = make () in
  let server =
    Rpc.create net ~node:n1 ~port:1 ~handler:(fun x -> Some (x * 10)) ()
  in
  let client = Rpc.create net ~node:n2 ~port:1 () in
  let replies = ref [] in
  List.iter
    (fun k ->
      Rpc.call client ~to_:(Rpc.address server) ~timeout:20.0 k
        ~on_reply:(fun r -> replies := (k, r) :: !replies))
    [ 1; 2; 3; 4; 5 ];
  ignore (En.run engine);
  check i "all replied" 5 (List.length !replies);
  List.iter
    (fun (k, r) ->
      if r <> Ok (k * 10) then Alcotest.failf "bad correlation for %d" k)
    !replies

let test_concurrent_clients_one_server () =
  let engine, net, n1, n2 = make () in
  let n3 = Net.add_node net ~label:"client2" in
  let server =
    Rpc.create net ~node:n1 ~port:1 ~handler:(fun x -> Some (-x)) ()
  in
  let c1 = Rpc.create net ~node:n2 ~port:1 () in
  let c2 = Rpc.create net ~node:n3 ~port:1 () in
  let ok = ref 0 in
  for k = 1 to 10 do
    Rpc.call c1 ~to_:(Rpc.address server) ~timeout:30.0 k ~on_reply:(fun r ->
        if r = Ok (-k) then incr ok);
    Rpc.call c2 ~to_:(Rpc.address server) ~timeout:30.0 (100 + k)
      ~on_reply:(fun r -> if r = Ok (-(100 + k)) then incr ok)
  done;
  ignore (En.run engine);
  check i "all 20 correct" 20 !ok;
  check i "server served 20" 20 (Ctr.get (Rpc.stats server) Rpc.served)

let test_duplicate_response_is_late () =
  let engine, net, n1, n2 =
    make ~config:{ Net.default_config with duplicate_probability = 1.0 } ()
  in
  let server =
    Rpc.create net ~node:n1 ~port:1 ~handler:(fun x -> Some x) ()
  in
  let client = Rpc.create net ~node:n2 ~port:1 () in
  let replies = ref 0 in
  Rpc.call client ~to_:(Rpc.address server) ~timeout:30.0 1
    ~on_reply:(fun _ -> incr replies);
  ignore (En.run engine);
  (* the duplicated request produces two responses, each possibly
     duplicated; exactly one reaches the callback *)
  check i "exactly one callback" 1 !replies;
  check b "surplus counted as late" true
    (Ctr.get (Rpc.stats client) Rpc.late_replies >= 1)

(* ------------------------------------------------------------------ *)
(* Retries, dedup and fault windows.                                   *)

let test_retry_recovers_loss () =
  let engine, net, n1, n2 =
    make ~config:{ Net.default_config with drop_probability = 0.5 } ()
  in
  let server =
    Rpc.create net ~node:n1 ~port:1 ~handler:(fun x -> Some (x * 2)) ()
  in
  let client = Rpc.create net ~node:n2 ~port:1 () in
  let got = ref None in
  Rpc.call_retry client ~to_:(Rpc.address server) ~timeout:2.0
    ~rng:(Dsim.Rng.create 7L) ~attempts:10 21
    ~on_reply:(fun r -> got := Some r);
  ignore (En.run engine);
  check b "recovered by retrying" true (!got = Some (Ok 42));
  let s = Rpc.stats client in
  check i "one logical call" 1 (Ctr.get s Rpc.calls);
  check b "at least one retry" true (Ctr.get s Rpc.retries >= 1);
  check i "no exhaustion" 0 (Ctr.get s Rpc.exhausted)

let test_retry_exhaustion_stats () =
  let engine, net, n1, n2 =
    make ~config:{ Net.default_config with drop_probability = 1.0 } ()
  in
  let _server =
    Rpc.create net ~node:n1 ~port:1 ~handler:(fun x -> Some x) ()
  in
  let client = Rpc.create net ~node:n2 ~port:1 () in
  let got = ref None in
  Rpc.call_retry client ~to_:{ Net.node = n1; port = 1 } ~timeout:1.0
    ~backoff:2.0 ~jitter:0.0 ~rng:(Dsim.Rng.create 7L) ~attempts:3 1
    ~on_reply:(fun r -> got := Some r);
  ignore (En.run engine);
  check b "exhausted" true (!got = Some (Error `Timeout));
  let s = Rpc.stats client in
  check i "calls" 1 (Ctr.get s Rpc.calls);
  check i "every attempt timed out" 3 (Ctr.get s Rpc.timeouts);
  check i "two retransmissions" 2 (Ctr.get s Rpc.retries);
  check i "one budget exhausted" 1 (Ctr.get s Rpc.exhausted);
  check i "none pending" 0 (Rpc.pending client);
  (* exponential backoff: 1 + 2 + 4 time units before giving up *)
  check b "backoff applied" true (En.now engine >= 7.0)

let test_deadline_cuts_retries_short () =
  let engine, net, n1, n2 =
    make ~config:{ Net.default_config with drop_probability = 1.0 } ()
  in
  let _server =
    Rpc.create net ~node:n1 ~port:1 ~handler:(fun x -> Some x) ()
  in
  let client = Rpc.create net ~node:n2 ~port:1 () in
  let got = ref None in
  let at = ref 0.0 in
  (* attempts alone would burn 1 + 2 + 4 + 8 ... time units; the
     deadline must surface a terminal [`Unavailable] at 5.0 sharp *)
  Rpc.call_retry client ~to_:{ Net.node = n1; port = 1 } ~timeout:1.0
    ~backoff:2.0 ~jitter:0.0 ~rng:(Dsim.Rng.create 7L) ~attempts:10
    ~deadline:5.0 1
    ~on_reply:(fun r ->
      got := Some r;
      at := En.now engine);
  ignore (En.run engine);
  check b "terminal error is Unavailable" true
    (!got = Some (Error `Unavailable));
  check b "reported exactly at the deadline" true (!at = 5.0);
  let s = Rpc.stats client in
  check i "counted as unavailable" 1 (Ctr.get s Rpc.unavailable);
  check i "distinct from attempts-exhausted" 0 (Ctr.get s Rpc.exhausted);
  check i "none pending" 0 (Rpc.pending client)

let test_deadline_no_effect_when_reply_arrives () =
  let engine, net, n1, n2 = make () in
  let server =
    Rpc.create net ~node:n1 ~port:1 ~handler:(fun x -> Some (x * 2)) ()
  in
  let client = Rpc.create net ~node:n2 ~port:1 () in
  let got = ref None in
  Rpc.call_retry client ~to_:(Rpc.address server) ~timeout:2.0
    ~rng:(Dsim.Rng.create 7L) ~attempts:3 ~deadline:50.0 21
    ~on_reply:(fun r -> got := Some r);
  ignore (En.run engine);
  check b "normal reply" true (!got = Some (Ok 42));
  check i "no unavailable" 0 (Ctr.get (Rpc.stats client) Rpc.unavailable);
  (* and an invalid deadline is rejected eagerly *)
  check b "non-positive deadline rejected" true
    (try
       Rpc.call_retry client ~to_:(Rpc.address server) ~timeout:2.0
         ~rng:(Dsim.Rng.create 7L) ~attempts:3 ~deadline:0.0 1
         ~on_reply:(fun _ -> ());
       false
     with Invalid_argument _ -> true)

let test_duplicate_invokes_handler_twice_without_dedup () =
  let engine, net, n1, n2 =
    make ~config:{ Net.default_config with duplicate_probability = 1.0 } ()
  in
  let invocations = ref 0 in
  let server =
    Rpc.create net ~node:n1 ~port:1
      ~handler:(fun x -> incr invocations; Some x)
      ()
  in
  let client = Rpc.create net ~node:n2 ~port:1 () in
  Rpc.call client ~to_:(Rpc.address server) ~timeout:30.0 1
    ~on_reply:(fun _ -> ());
  ignore (En.run engine);
  check i "duplicate delivery runs the handler twice" 2 !invocations;
  check i "no dedup hits without dedup" 0
    (Ctr.get (Rpc.stats server) Rpc.dedup_hits)

let test_dedup_applies_once () =
  let engine, net, n1, n2 =
    make ~config:{ Net.default_config with duplicate_probability = 1.0 } ()
  in
  let invocations = ref 0 in
  let server =
    Rpc.create net ~node:n1 ~port:1
      ~handler:(fun x -> incr invocations; Some x)
      ~dedup:true ()
  in
  let client = Rpc.create net ~node:n2 ~port:1 () in
  let got = ref None in
  Rpc.call client ~to_:(Rpc.address server) ~timeout:30.0 1
    ~on_reply:(fun r -> got := Some r);
  ignore (En.run engine);
  check b "still replied" true (!got = Some (Ok 1));
  check i "handler ran once" 1 !invocations;
  check b "duplicate answered from memory" true
    (Ctr.get (Rpc.stats server) Rpc.dedup_hits >= 1)

let test_retry_across_crash_restart () =
  let engine, net, n1, n2 = make () in
  let server =
    Rpc.create net ~node:n1 ~port:1 ~handler:(fun x -> Some (x + 1)) ()
  in
  let client = Rpc.create net ~node:n2 ~port:1 () in
  Net.set_node_up net n1 false;
  ignore
    (En.schedule engine ~delay:5.0 (fun () -> Net.set_node_up net n1 true));
  let got = ref None in
  Rpc.call_retry client ~to_:(Rpc.address server) ~timeout:2.0 ~backoff:1.0
    ~rng:(Dsim.Rng.create 7L) ~attempts:10 1
    ~on_reply:(fun r -> got := Some r);
  ignore (En.run engine);
  (* the server's binding survived the crash; a retry after the restart
     gets through *)
  check b "served after restart" true (!got = Some (Ok 2));
  check b "down window cost retries" true
    (Ctr.get (Rpc.stats client) Rpc.retries >= 1)

let test_retry_across_partition_heal () =
  let engine, net, n1, n2 = make () in
  let server =
    Rpc.create net ~node:n1 ~port:1 ~handler:(fun x -> Some (x + 1)) ()
  in
  let client = Rpc.create net ~node:n2 ~port:1 () in
  Net.partition net [ n1 ] [ n2 ];
  ignore (En.schedule engine ~delay:5.0 (fun () -> Net.heal net));
  let got = ref None in
  Rpc.call_retry client ~to_:(Rpc.address server) ~timeout:2.0 ~backoff:1.0
    ~rng:(Dsim.Rng.create 7L) ~attempts:10 1
    ~on_reply:(fun r -> got := Some r);
  ignore (En.run engine);
  check b "served after heal" true (!got = Some (Ok 2));
  check b "messages were cut meanwhile" true
    (Ctr.get (Net.stats net) Net.cut >= 1)

(* property: with dedup on and a sufficient attempt budget, every
   logical request is applied exactly once, whatever the loss and
   duplication rates (below 1) do to the individual messages. *)
let prop_exactly_once =
  QCheck.Test.make ~name:"retry+dedup applies exactly once" ~count:25
    QCheck.(triple small_nat (float_bound_inclusive 0.7)
              (float_bound_inclusive 0.7))
    (fun (seed, drop, duplicate) ->
      let engine = En.create () in
      let net =
        Net.create
          ~config:
            { Net.default_config with
              drop_probability = drop;
              duplicate_probability = duplicate }
          ~engine
          ~rng:(Dsim.Rng.create (Int64.of_int (seed + 1)))
          ()
      in
      let n1 = Net.add_node net ~label:"server" in
      let n2 = Net.add_node net ~label:"client" in
      let applied = Hashtbl.create 8 in
      let server =
        Rpc.create net ~node:n1 ~port:1
          ~handler:(fun k ->
            Hashtbl.replace applied k (1 + Option.value ~default:0 (Hashtbl.find_opt applied k));
            Some k)
          ~dedup:true ()
      in
      let client = Rpc.create net ~node:n2 ~port:1 () in
      let logical = 5 in
      let ok = ref 0 in
      for k = 1 to logical do
        Rpc.call_retry client ~to_:(Rpc.address server) ~timeout:1.0
          ~backoff:1.0 ~rng:(Dsim.Rng.create (Int64.of_int (seed + k)))
          ~attempts:200 k
          ~on_reply:(function Ok _ -> incr ok | Error _ -> ())
      done;
      ignore (En.run engine);
      (* at-most-once always; with this budget, exactly once *)
      Hashtbl.iter
        (fun k n ->
          if n <> 1 then
            QCheck.Test.fail_reportf "request %d applied %d times" k n)
        applied;
      !ok = logical && Hashtbl.length applied = logical)

let suite =
  [
    Alcotest.test_case "call/reply" `Quick test_call_reply;
    Alcotest.test_case "timeout on loss" `Quick test_timeout_on_loss;
    Alcotest.test_case "handler drop" `Quick test_handler_drop;
    Alcotest.test_case "no handler / set_handler" `Quick test_no_handler;
    Alcotest.test_case "correlation" `Quick test_correlation;
    Alcotest.test_case "two clients, one server" `Quick
      test_concurrent_clients_one_server;
    Alcotest.test_case "duplicate responses are late" `Quick
      test_duplicate_response_is_late;
    Alcotest.test_case "retry recovers loss" `Quick test_retry_recovers_loss;
    Alcotest.test_case "retry exhaustion stats" `Quick
      test_retry_exhaustion_stats;
    Alcotest.test_case "deadline cuts retries short" `Quick
      test_deadline_cuts_retries_short;
    Alcotest.test_case "deadline inert when replies flow" `Quick
      test_deadline_no_effect_when_reply_arrives;
    Alcotest.test_case "duplicate runs handler twice (no dedup)" `Quick
      test_duplicate_invokes_handler_twice_without_dedup;
    Alcotest.test_case "dedup applies once" `Quick test_dedup_applies_once;
    Alcotest.test_case "retry across crash/restart" `Quick
      test_retry_across_crash_restart;
    Alcotest.test_case "retry across partition/heal" `Quick
      test_retry_across_partition_heal;
    QCheck_alcotest.to_alcotest prop_exactly_once;
  ]
