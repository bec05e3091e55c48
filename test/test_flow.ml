(* Tests for the name-flow analyzer: the broken-script fixture and its
   golden JSON, sample plans, strict/report script modes, the script
   parser, the SARIF renderer, and the static-vs-dynamic soundness
   property. *)

module A = Analysis
module F = A.Flow
module Sc = Workload.Script
module N = Naming.Name

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int
let sl = Alcotest.(list string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- the broken-script fixture --------------------------------------- *)

let test_broken_codes () =
  let _r, rep = Broken_script.report () in
  let codes =
    List.map (fun d -> d.A.Diagnostic.code) rep.A.Engine.diagnostics
  in
  check sl "diagnostic codes in report order" Broken_script.expected_codes
    codes

let test_broken_gates () =
  let _r, rep = Broken_script.report () in
  check b "has errors" true (A.Engine.has_errors rep);
  check i "exit code" 1 (A.Engine.exit_code [ rep ]);
  check i "errors" 2 rep.A.Engine.errors;
  check i "warnings" 4 rep.A.Engine.warnings;
  check i "infos" 1 rep.A.Engine.infos

let test_broken_json_golden () =
  let _r, rep = Broken_script.report () in
  let store = Naming.Store.create () in
  let json = Naming.Json.to_string_pretty (A.Engine.to_json store rep) in
  check Alcotest.string "golden JSON" Broken_script.expected_json json

let test_broken_lines () =
  let plan = Broken_script.plan () in
  let lines = Broken_script.lines () in
  check i "one source line per step" (List.length plan) (Array.length lines);
  (* the leading comment line shifts every step down by one *)
  check i "first step line" 2 lines.(0);
  check i "last step line" (List.length plan + 1)
    lines.(Array.length lines - 1)

(* The fixture's static verdicts against the dynamic replay: outcomes
   agree, divergence witnesses match, and the predicted skip set is
   exactly the real one. *)
let compare_static_dynamic plan config =
  let r = F.analyze ~config plan in
  let d = F.replay ~config plan in
  check i "verdict count" (List.length r.F.verdicts)
    (List.length d.F.dyn_verdicts);
  List.iter2
    (fun (v : F.verdict) (dy : F.dyn) ->
      check i "same step" v.F.index dy.F.dyn_index;
      if not (F.agrees v.F.outcome dy.F.dyn_outcome) then
        Alcotest.failf "step %d (%s): static %s contradicts dynamic %s"
          v.F.index
          (F.flow_to_string v.F.flow)
          (Format.asprintf "%a" F.pp_outcome v.F.outcome)
          (Format.asprintf "%a" F.pp_outcome dy.F.dyn_outcome);
      match v.F.outcome with
      | F.Unknown _ -> ()
      | _ ->
          check b
            (Printf.sprintf "step %d divergence" v.F.index)
            dy.F.dyn_diverged
            (v.F.divergence <> None))
    r.F.verdicts d.F.dyn_verdicts;
  let skip_key (idx, (sk : Sc.skip)) =
    Printf.sprintf "%d/%d %s: %s" idx sk.Sc.index (Sc.op_to_string sk.Sc.op)
      sk.Sc.reason
  in
  check sl "identical skip sets"
    (List.map skip_key d.F.dyn_skips)
    (List.map skip_key r.F.skips)

let test_broken_replay_agrees () =
  compare_static_dynamic (Broken_script.plan ()) Broken_script.config

(* --- sample plans ----------------------------------------------------- *)

let script_exn name =
  match Harness.Sample.script name with
  | Some plan -> plan
  | None -> Alcotest.failf "unknown sample script %s" name

let test_samples_error_free () =
  check b "sample scripts exist" true (Harness.Sample.scripts <> []);
  List.iter
    (fun name ->
      let _r, rep = A.Flowpasses.report ~label:name (script_exn name) in
      if A.Engine.has_errors rep then
        Alcotest.failf "sample script %s has flow errors" name)
    Harness.Sample.scripts

let test_samples_replay_agrees () =
  List.iter
    (fun name ->
      compare_static_dynamic (script_exn name) F.default_config)
    Harness.Sample.scripts

(* The fork sample exists to witness NG104; the skips sample NG103 and
   NG105. *)
let codes_of name =
  let _r, rep = A.Flowpasses.report ~label:name (script_exn name) in
  List.map (fun d -> d.A.Diagnostic.code) rep.A.Engine.diagnostics

let test_sample_witnesses () =
  check sl "fork" [ "NG104" ] (codes_of "fork");
  check sl "skips" [ "NG103"; "NG105" ] (codes_of "skips");
  check sl "exchange" [] (codes_of "exchange")

(* --- message text pinned against later ops ------------------------------ *)

(* A flow's witness names the nodes it resolved to when it was judged.
   The ops after it unlink /a/f and re-create it — a new node with the
   same label — and rebind the head both flows went through; the
   messages must still name the old node ids. *)
let rebind_text =
  {script|mkdir /a
add-file /a/f "one"
mkdir /b
add-file /b/f "two"
spawn p
bind 0 h /b
fork 0
bind 1 h /a
use 1 h/f
send 1 0 h/f
unlink /a/f
add-file /a/f "three"
bind 1 h /b
use 1 h/f
|script}

let messages_of text =
  match F.parse text with
  | Error msg -> Alcotest.failf "fixture does not parse: %s" msg
  | Ok (plan, _) ->
      let _r, rep = A.Flowpasses.report ~label:"witness" plan in
      List.map
        (fun (d : A.Diagnostic.t) ->
          (d.A.Diagnostic.code, d.A.Diagnostic.message))
        rep.A.Engine.diagnostics

let pair = Alcotest.(list (pair string string))

let test_messages_survive_later_ops () =
  check pair "messages name the nodes judged at the time"
    [
      ( "NG101",
        "send 1 0 h/f: proc 1:p' (sender) → n2:f via [h → n1:a; n1:a.f → \
         n2:f]; proc 0:p (receiver) → n4:f via [h → n3:b; n3:b.f → n4:f]" );
      ( "NG104",
        "use 1 h/f: resolves n2:f but fork parent 0 resolves n4:f" );
    ]
    (messages_of rebind_text)

(* The source side of a read of "/" resolves without a single step, so
   its part of the message carries no "via [...]". *)
let test_empty_trace_message () =
  check pair "a side with no steps"
    [
      ( "NG102",
        "read 0 /a/f /: scope of /a/f → n0:/; proc 0:p (reader) → n1:a via \
         [/ → n1:a]" );
    ]
    (messages_of
       "mkdir /a\nadd-file /a/f \"x\"\nspawn p\nchroot 0 /a\nread 0 /a/f /\n")

(* --- strict mode and the skip report ---------------------------------- *)

let ops_with_skip =
  [ Sc.Spawn "p0"; Sc.Mkdir "/a"; Sc.Chdir (0, "/nope"); Sc.Mkdir "/a/b" ]

let test_run_report () =
  let w = Sc.new_world (Naming.Store.create ()) in
  match Sc.run_report w ops_with_skip with
  | [ sk ] ->
      check i "skip index" 2 sk.Sc.index;
      check Alcotest.string "skip reason" "/nope is not a directory"
        sk.Sc.reason;
      (* the ops after the skip still ran *)
      check b "later op applied" true
        (Naming.Entity.is_defined
           (Vfs.Fs.lookup (Sc.fs w) "/a/b"))
  | sks -> Alcotest.failf "expected exactly one skip, got %d" (List.length sks)

let test_run_strict () =
  let w = Sc.new_world (Naming.Store.create ()) in
  (match Sc.run ~strict:true w ops_with_skip with
  | () -> Alcotest.fail "expected Skipped"
  | exception Sc.Skipped sk ->
      check i "strict skip index" 2 sk.Sc.index;
      check Alcotest.string "strict reason" "/nope is not a directory"
        sk.Sc.reason);
  (* strict stops at the offending op *)
  check b "later op not applied" true
    (Naming.Entity.is_undefined (Vfs.Fs.lookup (Sc.fs w) "/a/b"));
  (* the default is the historical silent-skip behaviour *)
  let w2 = Sc.new_world (Naming.Store.create ()) in
  Sc.run w2 ops_with_skip;
  check b "non-strict completes" true
    (Naming.Entity.is_defined (Vfs.Fs.lookup (Sc.fs w2) "/a/b"))

(* --- the op parser ----------------------------------------------------- *)

let roundtrip_ops =
  [
    Sc.Mkdir "/a/b";
    Sc.Add_file ("/a/b/f", "two words");
    Sc.Write ("/a/b/f", "x\"y");
    Sc.Unlink "/a/b/f";
    Sc.Spawn "p0";
    Sc.Fork 3;
    Sc.Chdir (0, "/a");
    Sc.Chroot (1, "/a/b");
    Sc.Bind (2, "mnt", "/a");
    Sc.Unbind (2, "mnt");
  ]

let test_op_roundtrip () =
  List.iter
    (fun op ->
      let s = Sc.op_to_string op in
      match Sc.op_of_string s with
      | Ok op' ->
          check b (Printf.sprintf "roundtrip %s" s) true (op = op')
      | Error msg -> Alcotest.failf "%s does not parse back: %s" s msg)
    roundtrip_ops

let test_parse_errors () =
  (match F.parse "mkdir /a\nbogus 1 2\n" with
  | Error msg -> check b "error names the line" true (contains ~sub:"line 2" msg)
  | Ok _ -> Alcotest.fail "expected a parse error");
  (match F.parse "# comments\n\n  \n" with
  | Ok (plan, _) -> check i "comments-only plan is empty" 0 (List.length plan)
  | Error msg -> Alcotest.failf "comments-only text rejected: %s" msg);
  match F.parse "use 0\n" with
  | Error msg -> check b "truncated flow rejected" true (contains ~sub:"line 1" msg)
  | Ok _ -> Alcotest.fail "expected a parse error"

(* --- SARIF ------------------------------------------------------------- *)

let test_sarif () =
  let _r, rep = Broken_script.report () in
  let lines = Broken_script.lines () in
  let line_of i =
    if i >= 0 && i < Array.length lines then Some lines.(i) else None
  in
  let s =
    Naming.Json.to_string
      (A.Sarif.render [ A.Sarif.of_report ~uri:"broken.nsc" ~line_of rep ])
  in
  List.iter
    (fun sub ->
      check b (Printf.sprintf "sarif contains %s" sub) true (contains ~sub s))
    [
      "\"version\":\"2.1.0\"";
      "\"name\":\"namingctl\"";
      "\"id\":\"NG101\"";
      "\"ruleId\":\"NG101\"";
      "\"ruleId\":\"NG106\"";
      "\"level\":\"note\"";
      "\"uri\":\"broken.nsc\"";
      (* the NG101 send is step 7, source line 9 *)
      "\"startLine\":9";
    ];
  (* without a uri the result falls back to a logical location *)
  let s2 = Naming.Json.to_string (A.Sarif.render [ A.Sarif.of_report rep ]) in
  check b "logical location fallback" true
    (contains ~sub:"\"logicalLocations\"" s2);
  check b "no physical location" false (contains ~sub:"physicalLocation" s2)

(* --- properties -------------------------------------------------------- *)

let flow_names =
  [| "/a"; "/a/b"; "/a/b/c"; "/d"; "/d/e"; "/f"; "a"; "a/b"; "b/c";
     "mnt"; "mnt/f"; "vice"; "x"; "e"; ".."; "." |]

let flow_paths = [| "/a"; "/a/b"; "/a/b/c"; "/d"; "/d/e"; "/f"; "a/b" |]

let random_flow rng =
  let name () = N.of_string (Dsim.Rng.pick_array rng flow_names) in
  let idx () = Dsim.Rng.int rng 4 in
  match Dsim.Rng.int rng 3 with
  | 0 -> F.Use { proc = idx (); name = name () }
  | 1 -> F.Send { sender = idx (); receiver = idx (); name = name () }
  | _ -> F.Read { reader = idx (); path = Dsim.Rng.pick_array rng flow_paths;
                  name = name () }

(* A random plan: [Script.random_ops] (generated against a scratch
   world) interleaved with random flows. *)
let random_plan seed =
  let rng = Dsim.Rng.create (Int64.of_int (seed + 1)) in
  let w = Sc.new_world (Naming.Store.create ()) in
  let ops = Sc.random_ops w ~rng ~n:25 in
  List.concat_map
    (fun op ->
      F.Op op
      ::
      (if Dsim.Rng.int rng 2 = 0 then [ F.Flow (random_flow rng) ] else []))
    ops

(* Soundness: the static analyzer never contradicts the dynamic replay —
   on outcomes, on fork divergence, or on the predicted skip set. *)
let prop_static_never_contradicts_dynamic =
  QCheck.Test.make ~name:"flow analyzer never contradicts replay" ~count:150
    QCheck.small_nat (fun seed ->
      let plan = random_plan seed in
      let r = F.analyze plan in
      let d = F.replay plan in
      List.length r.F.verdicts = List.length d.F.dyn_verdicts
      && List.for_all2
           (fun (v : F.verdict) (dy : F.dyn) ->
             v.F.index = dy.F.dyn_index
             && F.agrees v.F.outcome dy.F.dyn_outcome
             &&
             match v.F.outcome with
             | F.Unknown _ -> true
             | _ -> (v.F.divergence <> None) = dy.F.dyn_diverged)
           r.F.verdicts d.F.dyn_verdicts
      && List.map
           (fun (idx, (sk : Sc.skip)) ->
             (idx, sk.Sc.index, Sc.op_to_string sk.Sc.op, sk.Sc.reason))
           r.F.skips
         = List.map
             (fun (idx, (sk : Sc.skip)) ->
               (idx, sk.Sc.index, Sc.op_to_string sk.Sc.op, sk.Sc.reason))
             d.F.dyn_skips)

(* Structural sanity of the emitted diagnostics on the same plans: every
   code is catalogued with a matching severity, and every witness step
   is in range. *)
let prop_diagnostics_well_formed =
  QCheck.Test.make ~name:"flow diagnostics are well-formed" ~count:50
    QCheck.small_nat (fun seed ->
      let plan = random_plan seed in
      let _r, rep = A.Flowpasses.report ~label:"random" plan in
      List.for_all
        (fun (d : A.Diagnostic.t) ->
          (match
             List.find_opt
               (fun (c, _, _) -> String.equal c d.A.Diagnostic.code)
               A.Diagnostic.catalogue
           with
          | Some (_, sev, _) -> sev = d.A.Diagnostic.severity
          | None -> false)
          &&
          match d.A.Diagnostic.loc with
          | Some step -> step >= 0 && step < List.length plan
          | None -> false)
        rep.A.Engine.diagnostics)

let suite =
  [
    Alcotest.test_case "broken script codes" `Quick test_broken_codes;
    Alcotest.test_case "broken script gates" `Quick test_broken_gates;
    Alcotest.test_case "broken script JSON golden" `Quick
      test_broken_json_golden;
    Alcotest.test_case "broken script source lines" `Quick test_broken_lines;
    Alcotest.test_case "broken script replay agrees" `Quick
      test_broken_replay_agrees;
    Alcotest.test_case "sample scripts error-free" `Quick
      test_samples_error_free;
    Alcotest.test_case "sample scripts replay agrees" `Quick
      test_samples_replay_agrees;
    Alcotest.test_case "sample script witnesses" `Quick test_sample_witnesses;
    Alcotest.test_case "messages survive later ops" `Quick
      test_messages_survive_later_ops;
    Alcotest.test_case "message without a trace" `Quick
      test_empty_trace_message;
    Alcotest.test_case "run_report" `Quick test_run_report;
    Alcotest.test_case "strict run" `Quick test_run_strict;
    Alcotest.test_case "op roundtrip" `Quick test_op_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "sarif render" `Quick test_sarif;
    QCheck_alcotest.to_alcotest prop_static_never_contradicts_dynamic;
    QCheck_alcotest.to_alcotest prop_diagnostics_well_formed;
  ]
