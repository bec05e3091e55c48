(* Tests for Dsim.Counters — the named counter sets the network, RPC
   and name-server layers report through. *)

module Ctr = Dsim.Counters

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int

type tick

let schema : tick Ctr.schema = Ctr.schema ()
let first = Ctr.key schema "first"
let second = Ctr.key schema "second"
let third = Ctr.key schema "third"

(* the same kind, declared twice: only the run-time check tells them
   apart *)
let twin : tick Ctr.schema = Ctr.schema ()
let _ = Ctr.key twin "first"

let invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let bump c k n =
  for _ = 1 to n do
    Ctr.incr c k
  done

let test_snapshot_is_a_copy () =
  let c = Ctr.create schema in
  bump c first 2;
  let before = Ctr.snapshot c in
  bump c first 3;
  bump c third 1;
  check i "earlier snapshot keeps first" 2 (Ctr.get before first);
  check i "earlier snapshot keeps third" 0 (Ctr.get before third);
  let after = Ctr.snapshot c in
  check i "later snapshot sees first" 5 (Ctr.get after first);
  check i "later snapshot sees third" 1 (Ctr.get after third)

let test_sum () =
  let c = Ctr.create schema and d = Ctr.create schema in
  bump c first 1;
  bump c second 2;
  let early = Ctr.snapshot c in
  bump c third 4;
  let late = Ctr.snapshot c in
  bump d second 10;
  let total = Ctr.sum [ early; late; Ctr.snapshot d ] in
  check i "first" 2 (Ctr.get total first);
  check i "second" 14 (Ctr.get total second);
  check i "third" 4 (Ctr.get total third);
  check i "inputs untouched" 2 (Ctr.get early second);
  check i "one snapshot sums to itself" 4 (Ctr.get (Ctr.sum [ late ]) third);
  check b "empty list rejected" true (invalid (fun () -> Ctr.sum []));
  let stranger = Ctr.snapshot (Ctr.create twin) in
  check b "mixed schemas rejected" true
    (invalid (fun () -> Ctr.sum [ early; stranger ]))

let test_declaration_order () =
  let c = Ctr.create schema in
  bump c third 3;
  bump c first 1;
  let s = Ctr.snapshot c in
  bump c second 7;
  check Alcotest.string "json in declaration order"
    {|{"first":1,"second":0,"third":3}|}
    (Naming.Json.to_string (Ctr.to_json s));
  check Alcotest.string "pp in declaration order" "first=1 second=0 third=3"
    (Format.asprintf "%a" Ctr.pp s);
  check b "a live schema takes no key" true
    (invalid (fun () -> Ctr.key schema "fourth"));
  let fresh : tick Ctr.schema = Ctr.schema () in
  ignore (Ctr.key fresh "x");
  check b "a repeated name is rejected" true
    (invalid (fun () -> Ctr.key fresh "x"))

let suite =
  [
    Alcotest.test_case "snapshot unchanged by later increments" `Quick
      test_snapshot_is_a_copy;
    Alcotest.test_case "sum adds key by key, rejects empty or mixed" `Quick
      test_sum;
    Alcotest.test_case "to_json and pp keep declaration order" `Quick
      test_declaration_order;
  ]
