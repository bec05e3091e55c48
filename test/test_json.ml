(* Tests for Naming.Json: the printer's exact output, the parser's
   round-trip over random trees, its error offsets, and a schedule
   document in the format earlier releases wrote. *)

module J = Naming.Json
module Ch = Dsim.Chaos
module N = Naming.Name

let check = Alcotest.check

let test_render () =
  let j =
    J.Obj
      [
        ("s", J.String "a\"b\\c\nd\tcontrol:\x01");
        ("n", J.Int 3);
        ("f", J.Float 1.5);
        ("l", J.List [ J.Bool true; J.Null ]);
        ("e", J.Obj []);
      ]
  in
  check Alcotest.string "compact"
    "{\"s\":\"a\\\"b\\\\c\\nd\\tcontrol:\\u0001\",\"n\":3,\"f\":1.5,\
     \"l\":[true,null],\"e\":{}}"
    (J.to_string j);
  check Alcotest.bool "pretty contains newlines" true
    (String.contains (J.to_string_pretty j) '\n')

(* Random trees over every byte in strings and keys (control characters
   and raw non-ASCII bytes included), the full int range, and finite
   floats — with values a 12-digit renderer would round, such as
   0.1 +. 0.2. *)
let tree_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:char (0 -- 8) in
  let finite f = if Float.is_finite f then f else 0.0 in
  let float_ =
    oneof
      [
        map finite float;
        oneofl
          [
            0.1 +. 0.2; 1.0 /. 3.0; -0.0; 1e15; 1e-300; 5e-324; max_float;
            -1e20; 123456789.125;
          ];
      ]
  in
  let leaf =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun f -> J.Float f) float_;
        map (fun s -> J.String s) str;
      ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self depth ->
         if depth = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               ( 2,
                 map (fun l -> J.List l) (list_size (0 -- 4) (self (depth - 1)))
               );
               ( 2,
                 map
                   (fun kvs -> J.Obj kvs)
                   (list_size (0 -- 4) (pair str (self (depth - 1)))) );
             ])

let prop_roundtrip =
  QCheck.Test.make ~name:"of_string inverts to_string and to_string_pretty"
    ~count:500
    (QCheck.make ~print:J.to_string tree_gen)
    (fun t ->
      J.of_string (J.to_string t) = Ok t
      && J.of_string (J.to_string_pretty t) = Ok t)

let test_error_offsets () =
  List.iter
    (fun (what, text, expected) ->
      check
        Alcotest.(result unit string)
        what (Error expected)
        (Result.map (fun _ -> ()) (J.of_string text)))
    [
      ("truncated array", {|{"a": [1, 2|}, "expected ',' or ']' at offset 11");
      ("truncated string", {|"abc|}, "unterminated string at offset 4");
      ("bad escape", {|["ok", "a\qb"]|}, "bad escape at offset 9");
      ("bad \\u escape", {|"x\u00g1"|}, "malformed \\u escape at offset 2");
      ("trailing garbage", {|{"a": 1} x|}, "trailing garbage at offset 9");
      ("overflowing literal", {|[1e999]|}, "number out of range at offset 1");
      ("empty input", "", "expected a JSON value at offset 0");
    ]

let test_literals () =
  let parses text v =
    check Alcotest.bool text true (J.of_string text = Ok v)
  in
  parses "7" (J.Int 7);
  parses "7.0" (J.Float 7.0);
  parses "-2e3" (J.Float (-2000.0));
  parses "99999999999999999999" (J.Float 1e20);
  parses {|"ö😀"|} (J.String "\xc3\xb6\xf0\x9f\x98\x80");
  parses " [ ] " (J.List [])

(* A schedule as the explorer wrote it before Naming.Json existed: its
   compact one-line config and write objects, exact floats, a null
   target and an escaped quote. It must parse to the same schedule. *)
let parent_schedule =
  {|{
  "version": 1,
  "config": {"seed": 9, "replicas": 3, "drop": 0.30000000000000004, "duplicate": 0.3333333333333333, "partition_at": 12.5, "partition_for": 20.0, "crash_at": 15.0, "crash_for": 10.0, "writes": 3, "write_window": 30.0, "call_timeout": 2.0, "call_attempts": 6, "ae_period": 2.0, "ae_timeout": 2.0, "ae_attempts": 3, "sample_every": 2.0, "duration": 80.0, "dedup_window": 64, "mode": "leader", "leader_kill_at": 15.0, "leader_kill_for": 6.25, "partition_leader": true, "txn_deadline": 0.001},
  "writes": [
    {"time": 0.30000000000000004, "client": 0, "path": "/a/b", "atom": "x", "target": "k1"},
    {"time": 2.0, "client": 2, "path": "/", "atom": "z", "target": null},
    {"time": 29.999999999999996, "client": 1, "path": "/etc", "atom": "passwd", "target": "k\"2"}
  ]
}|}

let test_parent_schedule () =
  let w time client path atom target =
    ( time,
      client,
      Dsim.Nameserver.Write
        { path = N.prepend_root (N.of_string path); atom = N.atom atom; target }
    )
  in
  let expected =
    {
      Ch.config =
        {
          Ch.default with
          Ch.seed = 9;
          drop = 0.1 +. 0.2;
          duplicate = 1.0 /. 3.0;
          partition_at = 12.5;
          writes = 3;
          dedup_window = Some 64;
          mode = `Leader_log;
          leader_kill_for = 6.25;
          partition_leader = true;
          txn_deadline = 1e-3;
        };
      writes =
        [
          w (0.1 +. 0.2) 0 "/a/b" "x" (Some "k1");
          w 2.0 2 "/" "z" None;
          w 29.999999999999996 1 "/etc" "passwd" (Some "k\"2");
        ];
    }
  in
  match Ch.schedule_of_json parent_schedule with
  | Error m -> Alcotest.failf "earlier schedule rejected: %s" m
  | Ok s ->
      check Alcotest.bool "same schedule" true (s = expected);
      check Alcotest.bool "re-render parses to it too" true
        (Ch.schedule_of_json (Ch.schedule_to_json s) = Ok expected)

let suite =
  [
    Alcotest.test_case "render" `Quick test_render;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "error offsets" `Quick test_error_offsets;
    Alcotest.test_case "number and escape literals" `Quick test_literals;
    Alcotest.test_case "schedule in the earlier layout" `Quick
      test_parent_schedule;
  ]
