(* Tests for Naming.Codec — store serialisation. *)

module S = Naming.Store
module E = Naming.Entity
module N = Naming.Name
module Cd = Naming.Codec

let check = Alcotest.check
let b = Alcotest.bool

let sample_store () =
  let st = S.create () in
  let t = Schemes.Unix_scheme.build st in
  ignore (Schemes.Unix_scheme.spawn ~label:"p0" t);
  ignore
    (Vfs.Fs.add_file (Schemes.Unix_scheme.fs t) "/etc/motd"
       ~content:"hello\n\"quoted\"\tand tabs");
  st

let test_roundtrip () =
  let st = sample_store () in
  let text = Cd.to_string st in
  let st' = Cd.of_string text in
  check b "roundtrip equal" true (Cd.roundtrip_equal st st')

let test_roundtrip_resolves () =
  let st = sample_store () in
  let st' = Cd.of_string (Cd.to_string st) in
  (* Entity ids are preserved, so a name resolved in the original and in
     the copy yields the SAME id. *)
  let root st =
    List.find (fun e -> S.label st e = Some "/") (S.objects st)
  in
  let resolve st =
    Naming.Resolver.resolve st
      (Naming.Context.of_bindings [ (N.root_atom, root st) ])
      (N.of_string "/etc/motd")
  in
  let e = resolve st and e' = resolve st' in
  check b "same id" true (E.equal e e');
  check b "same content" true (S.data_of st e = S.data_of st' e')

let test_idempotent_text () =
  let st = sample_store () in
  let text = Cd.to_string st in
  let text' = Cd.to_string (Cd.of_string text) in
  check Alcotest.string "stable text" text text'

let test_bad_inputs () =
  let expect_fail s =
    match Cd.of_string s with
    | exception Cd.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" s
  in
  expect_fail "";
  expect_fail "not a store";
  expect_fail "coherent-naming-store v1\ngarbage line";
  expect_fail "coherent-naming-store v1\nactivity 1";
  (* non-dense ids *)
  expect_fail "coherent-naming-store v1\nbind 0 \"x\" o5";
  (* dangling reference *)
  expect_fail "coherent-naming-store v1\ndir 0\nbind 0 \"x\" o9";
  (* dense, but out of id order *)
  expect_fail "coherent-naming-store v1\ndir 1\ndir 0"

let test_empty_store () =
  let st = S.create () in
  let st' = Cd.of_string (Cd.to_string st) in
  check b "empty roundtrip" true (Cd.roundtrip_equal st st')

let test_binding_to_activity () =
  let st = S.create () in
  let d = S.create_context_object ~label:"procs" st in
  let a = S.create_activity ~label:"init" st in
  S.bind st ~dir:d (N.atom "init") a;
  let st' = Cd.of_string (Cd.to_string st) in
  check b "activity edge survives" true (Cd.roundtrip_equal st st');
  check b "resolves to the activity" true
    (E.equal (S.lookup st' ~dir:d (N.atom "init")) a)

(* property: every randomly generated world round-trips. *)
let prop_roundtrip_random =
  QCheck.Test.make ~name:"random worlds roundtrip" ~count:30 QCheck.small_nat
    (fun seed ->
      let rng = Dsim.Rng.create (Int64.of_int (seed + 1)) in
      let st = S.create () in
      let fs = Vfs.Fs.create st in
      ignore
        (Workload.Docgen.build fs ~at:"p" ~rng ~spec:Workload.Docgen.default_spec);
      for _ = 1 to Dsim.Rng.int rng 4 do
        ignore (S.create_activity st)
      done;
      Cd.roundtrip_equal st (Cd.of_string (Cd.to_string st)))

let test_error_positions () =
  (match Cd.of_string_result "not a store" with
  | Error { Cd.line = 1; _ } -> ()
  | _ -> Alcotest.fail "bad header not reported on line 1");
  (match Cd.of_string_result "coherent-naming-store v1\ndir 0\ngarbage" with
  | Error { Cd.line = 3; _ } -> ()
  | _ -> Alcotest.fail "garbage not reported on line 3");
  match Cd.of_string_result (Cd.to_string (sample_store ())) with
  | Ok st' -> check b "ok on valid dump" true (Cd.roundtrip_equal (sample_store ()) st')
  | Error _ -> Alcotest.fail "valid dump rejected"

(* property: the decoder is total — arbitrary bytes produce a value,
   never an exception. *)
let prop_decode_never_raises =
  QCheck.Test.make ~name:"of_string_result is total on random bytes"
    ~count:500
    QCheck.(string_gen Gen.char)
    (fun s ->
      match Cd.of_string_result s with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) s)

(* property: ditto for corrupted valid dumps — truncations and byte
   flips of a real serialisation, the adversarial neighbourhood random
   bytes never reach. *)
let prop_decode_total_on_mutated_dumps =
  let base = Cd.to_string (sample_store ()) in
  QCheck.Test.make ~name:"of_string_result is total on mutated dumps"
    ~count:500
    QCheck.(triple small_nat small_nat (QCheck.char))
    (fun (pos, cut, c) ->
      let mutate s =
        if String.length s = 0 then s
        else begin
          let bytes = Bytes.of_string s in
          Bytes.set bytes (pos mod Bytes.length bytes) c;
          Bytes.to_string bytes
        end
      in
      let truncate s = String.sub s 0 (cut mod (String.length s + 1)) in
      List.for_all
        (fun s ->
          match Cd.of_string_result s with
          | Ok _ | Error _ -> true
          | exception e ->
              QCheck.Test.fail_reportf "raised %s on %S"
                (Printexc.to_string e) s)
        [ mutate base; truncate base; mutate (truncate base) ])

(* The streaming pair must be byte- and structure-compatible with the
   string pair on every sample world: encode_to_channel writes exactly
   to_string's bytes, and decode_from_channel accepts them. *)
let test_streaming_roundtrip_samples () =
  let path = Filename.temp_file "naming_codec" ".dump" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iter
        (fun scheme ->
          let w =
            match Harness.Sample.world scheme with
            | Some w -> w
            | None -> Alcotest.failf "sample scheme %s missing" scheme
          in
          let text = Cd.to_string w.Harness.Sample.store in
          let oc = open_out_bin path in
          Cd.encode_to_channel w.Harness.Sample.store oc;
          close_out oc;
          let ic = open_in_bin path in
          let written = really_input_string ic (in_channel_length ic) in
          seek_in ic 0;
          let decoded = Cd.decode_from_channel ic in
          close_in ic;
          check b
            (scheme ^ ": channel bytes equal to_string")
            true
            (String.equal text written);
          match decoded with
          | Error e ->
              Alcotest.failf "%s: streaming decode failed at line %d: %s"
                scheme e.Cd.line e.Cd.message
          | Ok st' ->
              check b
                (scheme ^ ": streaming decode roundtrips")
                true
                (Cd.roundtrip_equal w.Harness.Sample.store st'))
        Harness.Sample.schemes)

let test_streaming_decode_errors () =
  let decode_str text =
    let path = Filename.temp_file "naming_codec" ".bad" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        output_string oc text;
        close_out oc;
        let ic = open_in_bin path in
        let r = Cd.decode_from_channel ic in
        close_in ic;
        r)
  in
  (match decode_str "coherent-naming-store v1\ndir 1\n" with
  | Error e -> check Alcotest.int "out-of-order id line" 2 e.Cd.line
  | Ok _ -> Alcotest.fail "sparse entity ids accepted");
  (match decode_str "nonsense\n" with
  | Error e -> check Alcotest.int "bad header line" 1 e.Cd.line
  | Ok _ -> Alcotest.fail "bad header accepted");
  (* a dangling bind target must fail at end of input, like of_string *)
  match decode_str "coherent-naming-store v1\ndir 0\nbind 0 \"x\" o9\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dangling reference accepted"

(* One decoder, two line sources: the channel reader and the string
   splitter agree verdict-for-verdict on mutated dumps. *)
let prop_streaming_matches_string =
  QCheck.Test.make ~name:"decode_from_channel agrees with of_string_result"
    ~count:60
    (QCheck.pair QCheck.small_nat QCheck.small_nat)
    (fun (line_no, flip) ->
      let st = sample_store () in
      let text = Cd.to_string st in
      let lines = String.split_on_char '\n' text in
      let n = List.length lines in
      let target = line_no mod n in
      let mutated =
        String.concat "\n"
          (List.mapi
             (fun i l ->
               if i <> target then l
               else
                 match flip mod 3 with
                 | 0 -> "garbage here"
                 | 1 -> ""
                 | _ -> l ^ " trailing")
             lines)
      in
      let path = Filename.temp_file "naming_codec" ".mut" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out_bin path in
          output_string oc mutated;
          close_out oc;
          let ic = open_in_bin path in
          let streamed = Cd.decode_from_channel ic in
          close_in ic;
          match (Cd.of_string_result mutated, streamed) with
          | Ok a, Ok b -> Cd.roundtrip_equal a b
          | Error _, Error _ -> true
          | Ok _, Error _ | Error _, Ok _ -> false))

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "roundtrip preserves resolution" `Quick
      test_roundtrip_resolves;
    Alcotest.test_case "idempotent text" `Quick test_idempotent_text;
    Alcotest.test_case "bad inputs" `Quick test_bad_inputs;
    Alcotest.test_case "empty store" `Quick test_empty_store;
    Alcotest.test_case "binding to an activity" `Quick
      test_binding_to_activity;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    Alcotest.test_case "error positions" `Quick test_error_positions;
    QCheck_alcotest.to_alcotest prop_decode_never_raises;
    QCheck_alcotest.to_alcotest prop_decode_total_on_mutated_dumps;
    Alcotest.test_case "streaming roundtrip on every sample scheme" `Quick
      test_streaming_roundtrip_samples;
    Alcotest.test_case "streaming decode errors" `Quick
      test_streaming_decode_errors;
    QCheck_alcotest.to_alcotest prop_streaming_matches_string;
  ]
