(* Tests for Dsim.Network and Dsim.Actor. *)

module En = Dsim.Engine
module Net = Dsim.Network
module Act = Dsim.Actor
module R = Dsim.Rng
module Ctr = Dsim.Counters

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int

let make ?(config = Net.default_config) () =
  let engine = En.create () in
  let rng = R.create 42L in
  let net = Net.create ~config ~engine ~rng () in
  (engine, net)

let test_nodes () =
  let _, net = make () in
  let n1 = Net.add_node net ~label:"m1" in
  let n2 = Net.add_node net ~label:"m2" in
  check (Alcotest.list i) "nodes" [ n1; n2 ] (Net.nodes net);
  check Alcotest.string "label" "m2" (Net.node_label net n2);
  (match Net.node_label net 99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown node accepted")

let test_basic_delivery () =
  let engine, net = make () in
  let n1 = Net.add_node net ~label:"m1" in
  let n2 = Net.add_node net ~label:"m2" in
  let a = Act.create net ~node:n1 ~port:1 in
  let bdst = Act.create net ~node:n2 ~port:1 in
  Act.send a ~to_:bdst "hello";
  check i "not yet delivered" 0 (Act.inbox_length bdst);
  ignore (En.run engine);
  (match Act.receive bdst with
  | Some env ->
      check Alcotest.string "payload" "hello" env.Net.payload;
      check b "latency applied" true (env.Net.delivered_at >= 1.0);
      check b "src recorded" true (env.Net.src = Act.address a)
  | None -> Alcotest.fail "no delivery");
  let s = Net.stats net in
  check i "sent" 1 (Ctr.get s Net.sent);
  check i "delivered" 1 (Ctr.get s Net.delivered)

let test_local_latency () =
  let engine, net = make () in
  let n1 = Net.add_node net ~label:"m1" in
  let a = Act.create net ~node:n1 ~port:1 in
  let c = Act.create net ~node:n1 ~port:2 in
  Act.send a ~to_:c "x";
  ignore (En.run engine);
  match Act.receive c with
  | Some env ->
      check b "local latency is small" true
        (env.Net.delivered_at -. env.Net.sent_at < 0.5)
  | None -> Alcotest.fail "no delivery"

let test_drop_all () =
  let engine, net =
    make ~config:{ Net.default_config with Net.drop_probability = 1.0 } ()
  in
  let n1 = Net.add_node net ~label:"m1" in
  let n2 = Net.add_node net ~label:"m2" in
  let a = Act.create net ~node:n1 ~port:1 in
  let c = Act.create net ~node:n2 ~port:1 in
  for _ = 1 to 10 do
    Act.send a ~to_:c "x"
  done;
  ignore (En.run engine);
  check i "nothing delivered" 0 (Act.inbox_length c);
  check i "all dropped" 10 (Ctr.get (Net.stats net) Net.dropped)

let test_duplicates () =
  let engine, net =
    make ~config:{ Net.default_config with Net.duplicate_probability = 1.0 } ()
  in
  let n1 = Net.add_node net ~label:"m1" in
  let n2 = Net.add_node net ~label:"m2" in
  let a = Act.create net ~node:n1 ~port:1 in
  let c = Act.create net ~node:n2 ~port:1 in
  Act.send a ~to_:c "x";
  ignore (En.run engine);
  check i "two copies" 2 (Act.inbox_length c);
  check i "duplicated stat" 1 (Ctr.get (Net.stats net) Net.duplicated)

let test_partition_and_heal () =
  let engine, net = make () in
  let n1 = Net.add_node net ~label:"m1" in
  let n2 = Net.add_node net ~label:"m2" in
  let a = Act.create net ~node:n1 ~port:1 in
  let c = Act.create net ~node:n2 ~port:1 in
  Net.partition net [ n1 ] [ n2 ];
  Act.send a ~to_:c "x";
  Act.send c ~to_:a "y";
  ignore (En.run engine);
  check i "both cut" 2 (Ctr.get (Net.stats net) Net.cut);
  check i "none delivered" 0 (Act.inbox_length a + Act.inbox_length c);
  Net.heal net;
  Act.send a ~to_:c "x2";
  ignore (En.run engine);
  check i "heals" 1 (Act.inbox_length c)

let test_undeliverable () =
  let engine, net = make () in
  let n1 = Net.add_node net ~label:"m1" in
  let n2 = Net.add_node net ~label:"m2" in
  let a = Act.create net ~node:n1 ~port:1 in
  Net.send net ~src:(Act.address a) ~dst:{ Net.node = n2; port = 9 } "x";
  ignore (En.run engine);
  check i "undeliverable" 1 (Ctr.get (Net.stats net) Net.undeliverable)

let test_reactive_handler () =
  let engine, net = make () in
  let n1 = Net.add_node net ~label:"m1" in
  let n2 = Net.add_node net ~label:"m2" in
  let a = Act.create net ~node:n1 ~port:1 in
  let c = Act.create net ~node:n2 ~port:1 in
  (* c echoes everything back to the sender. *)
  Act.on_receive c (fun env ->
      Act.send_to c env.Net.src ("echo:" ^ env.Net.payload));
  Act.send a ~to_:c "ping";
  ignore (En.run engine);
  (match Act.receive a with
  | Some env -> check Alcotest.string "echo" "echo:ping" env.Net.payload
  | None -> Alcotest.fail "no echo");
  (* back to queueing *)
  Act.queue_incoming c;
  Act.send a ~to_:c "ping2";
  ignore (En.run engine);
  check i "queued now" 1 (Act.inbox_length c)

let test_node_crash_and_recovery () =
  let engine, net = make () in
  let n1 = Net.add_node net ~label:"m1" in
  let n2 = Net.add_node net ~label:"m2" in
  let a = Act.create net ~node:n1 ~port:1 in
  let c = Act.create net ~node:n2 ~port:1 in
  check b "up initially" true (Net.node_is_up net n2);
  (* crash before send: lost at send time *)
  Net.set_node_up net n2 false;
  Act.send a ~to_:c "lost1";
  ignore (En.run engine);
  check i "down counted" 1 (Ctr.get (Net.stats net) Net.node_down);
  check i "nothing queued" 0 (Act.inbox_length c);
  (* crash while in flight: lost at delivery time *)
  Net.set_node_up net n2 true;
  Act.send a ~to_:c "lost2";
  Net.set_node_up net n2 false;
  ignore (En.run engine);
  check i "in-flight loss counted" 2 (Ctr.get (Net.stats net) Net.node_down);
  (* recovery: bindings survive *)
  Net.set_node_up net n2 true;
  Act.send a ~to_:c "finally";
  ignore (En.run engine);
  check i "delivered after restart" 1 (Act.inbox_length c)

let test_port_collision () =
  let _, net = make () in
  let n1 = Net.add_node net ~label:"m1" in
  let _a = Act.create net ~node:n1 ~port:1 in
  (match Act.create net ~node:n1 ~port:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate port accepted");
  (* same port on another node is fine *)
  let n2 = Net.add_node net ~label:"m2" in
  ignore (Act.create net ~node:n2 ~port:1)

let test_drain_order () =
  let engine, net = make () in
  let n1 = Net.add_node net ~label:"m1" in
  let a = Act.create net ~node:n1 ~port:1 in
  let c = Act.create net ~node:n1 ~port:2 in
  Act.send a ~to_:c "first";
  ignore (En.run engine);
  Act.send a ~to_:c "second";
  ignore (En.run engine);
  let payloads = List.map (fun e -> e.Net.payload) (Act.drain c) in
  check (Alcotest.list Alcotest.string) "oldest first" [ "first"; "second" ]
    payloads;
  check i "drained" 0 (Act.inbox_length c)

let test_many_messages_all_arrive () =
  let engine, net = make () in
  let n1 = Net.add_node net ~label:"m1" in
  let n2 = Net.add_node net ~label:"m2" in
  let a = Act.create net ~node:n1 ~port:1 in
  let c = Act.create net ~node:n2 ~port:1 in
  for k = 1 to 100 do
    Act.send a ~to_:c (string_of_int k)
  done;
  ignore (En.run engine);
  check i "all arrived" 100 (Act.inbox_length c);
  check i "delivered stat" 100 (Ctr.get (Net.stats net) Net.delivered)

(* A crash/restart window driven from inside the simulation: sends
   before and after the window arrive, sends into it are lost, and the
   port binding (the "naming state" of the node) survives the restart. *)
let test_scheduled_crash_window () =
  let engine, net = make () in
  let n1 = Net.add_node net ~label:"m1" in
  let n2 = Net.add_node net ~label:"m2" in
  let a = Act.create net ~node:n1 ~port:1 in
  let c = Act.create net ~node:n2 ~port:1 in
  ignore
    (En.schedule engine ~delay:5.0 (fun () -> Net.set_node_up net n2 false));
  ignore
    (En.schedule engine ~delay:10.0 (fun () -> Net.set_node_up net n2 true));
  let send_at t payload =
    ignore (En.schedule engine ~delay:t (fun () -> Act.send a ~to_:c payload))
  in
  send_at 1.0 "before";
  send_at 6.0 "during";
  send_at 12.0 "after";
  ignore (En.run engine);
  let payloads = List.map (fun e -> e.Net.payload) (Act.drain c) in
  check (Alcotest.list Alcotest.string) "window loss only"
    [ "before"; "after" ] payloads;
  check i "down loss counted" 1 (Ctr.get (Net.stats net) Net.node_down)

(* The message is in flight when the destination dies: it was accepted
   by the network but must not be delivered. *)
let test_crash_loses_in_flight () =
  let engine, net = make () in
  let n1 = Net.add_node net ~label:"m1" in
  let n2 = Net.add_node net ~label:"m2" in
  let a = Act.create net ~node:n1 ~port:1 in
  let c = Act.create net ~node:n2 ~port:1 in
  Act.send a ~to_:c "doomed";
  (* the crash fires at time 0, before any delivery latency elapses *)
  ignore (En.schedule engine ~delay:0.0 (fun () -> Net.set_node_up net n2 false));
  ignore (En.run engine);
  check i "nothing delivered" 0 (Act.inbox_length c);
  check i "in-flight loss counted" 1 (Ctr.get (Net.stats net) Net.node_down)

let test_scheduled_partition_window () =
  let engine, net = make () in
  let n1 = Net.add_node net ~label:"m1" in
  let n2 = Net.add_node net ~label:"m2" in
  let a = Act.create net ~node:n1 ~port:1 in
  let c = Act.create net ~node:n2 ~port:1 in
  ignore
    (En.schedule engine ~delay:2.0 (fun () -> Net.partition net [ n1 ] [ n2 ]));
  ignore (En.schedule engine ~delay:4.0 (fun () -> Net.heal net));
  let send_at t payload =
    ignore (En.schedule engine ~delay:t (fun () -> Act.send a ~to_:c payload))
  in
  send_at 1.0 "pre";
  send_at 3.0 "cut";
  send_at 5.0 "post";
  ignore (En.run engine);
  let payloads = List.map (fun e -> e.Net.payload) (Act.drain c) in
  check (Alcotest.list Alcotest.string) "cut window only" [ "pre"; "post" ]
    payloads;
  check i "cut counted" 1 (Ctr.get (Net.stats net) Net.cut)

let suite =
  [
    Alcotest.test_case "nodes" `Quick test_nodes;
    Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
    Alcotest.test_case "local latency" `Quick test_local_latency;
    Alcotest.test_case "drop" `Quick test_drop_all;
    Alcotest.test_case "duplicates" `Quick test_duplicates;
    Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
    Alcotest.test_case "undeliverable" `Quick test_undeliverable;
    Alcotest.test_case "reactive handler" `Quick test_reactive_handler;
    Alcotest.test_case "node crash and recovery" `Quick
      test_node_crash_and_recovery;
    Alcotest.test_case "port collision" `Quick test_port_collision;
    Alcotest.test_case "drain order" `Quick test_drain_order;
    Alcotest.test_case "100 messages" `Quick test_many_messages_all_arrive;
    Alcotest.test_case "scheduled crash window" `Quick
      test_scheduled_crash_window;
    Alcotest.test_case "crash loses in-flight message" `Quick
      test_crash_loses_in_flight;
    Alcotest.test_case "scheduled partition window" `Quick
      test_scheduled_partition_window;
  ]
