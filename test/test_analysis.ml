(* Tests for the Analysis library: diagnostics, passes, engine, the
   static coherence predictor, and the broken-world golden output. *)

module S = Naming.Store
module E = Naming.Entity
module N = Naming.Name
module A = Analysis

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int
let sl = Alcotest.(list string)

let broken_report () =
  let subject = Broken_world.build () in
  let config =
    { A.Engine.default_config with A.Engine.fuel = Broken_world.fuel }
  in
  (subject, A.Engine.analyze ~config ~label:"broken" subject)

(* --- the broken-world fixture --------------------------------------- *)

let test_broken_codes () =
  let _subject, r = broken_report () in
  let codes = List.map (fun d -> d.A.Diagnostic.code) r.A.Engine.diagnostics in
  check sl "diagnostic codes in report order" Broken_world.expected_codes codes

let test_broken_gates () =
  let _subject, r = broken_report () in
  check b "has errors" true (A.Engine.has_errors r);
  check i "exit code" 1 (A.Engine.exit_code [ r ]);
  check i "errors" 6 r.A.Engine.errors;
  check i "warnings" 6 r.A.Engine.warnings;
  check i "infos" 7 r.A.Engine.infos

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_broken_pretty () =
  let subject, r = broken_report () in
  let pretty =
    Format.asprintf "%a" (A.Engine.pp subject.A.Subject.store) r
  in
  List.iter
    (fun code ->
      check b (Printf.sprintf "pretty output mentions %s" code) true
        (contains ~sub:code pretty))
    Broken_world.expected_codes;
  check b "pretty output has the summary line" true
    (contains ~sub:"summary: 6 error(s), 6 warning(s), 7 info(s)" pretty)

let test_codes_in_catalogue () =
  let _subject, r = broken_report () in
  List.iter
    (fun d ->
      match
        List.find_opt
          (fun (c, _, _) -> String.equal c d.A.Diagnostic.code)
          A.Diagnostic.catalogue
      with
      | None ->
          Alcotest.failf "code %s not in the catalogue" d.A.Diagnostic.code
      | Some (_, sev, _) ->
          check b
            (Printf.sprintf "%s severity matches catalogue" d.A.Diagnostic.code)
            true
            (sev = d.A.Diagnostic.severity))
    r.A.Engine.diagnostics;
  (* ... and the fixtures together trip every catalogued code: the
     broken world covers the NG0xx world passes, the broken script the
     NG1xx flow passes, the broken cluster the NG2xx replication
     passes, and the explorer fixtures the NG3xx exploration passes. *)
  let tripped =
    List.map (fun d -> d.A.Diagnostic.code) r.A.Engine.diagnostics
    @ Broken_script.expected_codes @ Broken_cluster.expected_codes
    @ Broken_cluster.leader_expected_codes @ Test_explore.expected_codes
  in
  List.iter
    (fun (c, _, _) ->
      check b (Printf.sprintf "%s tripped" c) true
        (List.exists (String.equal c) tripped))
    A.Diagnostic.catalogue

let test_broken_json_golden () =
  let subject, r = broken_report () in
  let json =
    Naming.Json.to_string_pretty (A.Engine.to_json subject.A.Subject.store r)
  in
  check Alcotest.string "golden JSON" Broken_world.expected_json json

(* --- engine configuration ------------------------------------------- *)

let test_min_severity_filter () =
  let subject = Broken_world.build () in
  let config =
    { A.Engine.min_severity = A.Diagnostic.Error; fuel = Broken_world.fuel }
  in
  let r = A.Engine.analyze ~config ~label:"broken" subject in
  check b "only errors reported" true
    (List.for_all
       (fun d -> d.A.Diagnostic.severity = A.Diagnostic.Error)
       r.A.Engine.diagnostics);
  check i "filtered length" r.A.Engine.errors
    (List.length r.A.Engine.diagnostics);
  (* counters are unfiltered *)
  check i "warnings still counted" 6 r.A.Engine.warnings

(* --- the static coherence predictor --------------------------------- *)

let world_exn scheme =
  match Harness.Sample.world scheme with
  | Some w -> w
  | None -> Alcotest.failf "unknown sample scheme %s" scheme

let occs_of (w : Harness.Sample.world) =
  List.map Naming.Occurrence.generated w.Harness.Sample.activities

let test_predict_same_context () =
  let st = S.create () in
  let fs = Vfs.Fs.create st in
  Vfs.Fs.populate fs [ "etc/passwd" ];
  let env = Schemes.Process_env.create st in
  let root = Vfs.Fs.root fs in
  let p0 = Schemes.Process_env.spawn ~label:"p0" ~root env in
  let p1 = Schemes.Process_env.spawn ~label:"p1" ~root env in
  let occs = List.map Naming.Occurrence.generated [ p0; p1 ] in
  let p =
    A.Predict.predict st (Schemes.Process_env.rule env) occs
      (N.of_string "/etc")
  in
  check b "same-context evidence" true (p.A.Predict.evidence = A.Predict.Same_context);
  match p.A.Predict.outcome with
  | A.Predict.Coherent e ->
      check b "denotes /etc" true (E.equal e (Vfs.Fs.lookup fs "/etc"))
  | _ -> Alcotest.fail "expected provably-coherent"

let test_predict_convergence () =
  (* Two Andrew clients: private roots, shared subtree under "vice" —
     traces into the shared tree diverge at the root and converge at the
     attach point (paper section 6). *)
  let w = world_exn "andrew" in
  let p =
    A.Predict.predict w.Harness.Sample.store w.Harness.Sample.rule (occs_of w)
      (N.of_string "/vice/pkg")
  in
  (match p.A.Predict.outcome with
  | A.Predict.Coherent _ -> ()
  | o -> Alcotest.failf "expected coherent, got %s" (A.Predict.outcome_to_string o));
  match p.A.Predict.evidence with
  | A.Predict.Traces_compared { converge_at = Some k } ->
      check b "converges after the root step" true (k >= 1)
  | _ -> Alcotest.fail "expected converging traces"

let test_predict_incoherent_and_budget () =
  let w = world_exn "unix" in
  let st = w.Harness.Sample.store in
  let p =
    A.Predict.predict st w.Harness.Sample.rule (occs_of w) (N.of_string "/bin")
  in
  (match p.A.Predict.outcome with
  | A.Predict.Incoherent ((_, e1), (_, e2)) ->
      check b "distinct witnesses" true (not (E.equal e1 e2))
  | o -> Alcotest.failf "expected incoherent, got %s" (A.Predict.outcome_to_string o));
  let p =
    A.Predict.predict ~fuel:1 st w.Harness.Sample.rule (occs_of w)
      (N.of_string "/bin/ls")
  in
  check b "budget exhausted" true
    (match p.A.Predict.outcome with A.Predict.Unknown _ -> true | _ -> false);
  check b "budget evidence" true
    (p.A.Predict.evidence = A.Predict.Budget_exceeded)

(* Acceptance: on every sample scheme's probe set the static predictor
   agrees with the dynamic checker. *)
let test_predictor_agrees_on_samples () =
  List.iter
    (fun scheme ->
      let w = world_exn scheme in
      let st = w.Harness.Sample.store in
      let rule = w.Harness.Sample.rule in
      let occs = occs_of w in
      List.iter
        (fun probe ->
          let p = A.Predict.predict st rule occs probe in
          let v = Naming.Coherence.check st rule occs probe in
          if not (A.Predict.agrees p v) then
            Alcotest.failf "%s: predictor contradicts dynamic check on %s"
              scheme (N.to_string probe))
        (Harness.Sample.probes w))
    Harness.Sample.schemes

(* ... and each sample world analyzes without errors. *)
let test_samples_error_free () =
  List.iter
    (fun scheme ->
      let w = world_exn scheme in
      let subject =
        A.Subject.v
          ~probes:(Harness.Sample.probes w)
          ~rule:w.Harness.Sample.rule
          ~activities:w.Harness.Sample.activities w.Harness.Sample.store
      in
      let r = A.Engine.analyze ~label:scheme subject in
      if A.Engine.has_errors r then
        Alcotest.failf "%s has analyzer errors:@\n%a" scheme
          (A.Engine.pp w.Harness.Sample.store)
          r)
    Harness.Sample.schemes

(* --- properties ----------------------------------------------------- *)

let atom_pool =
  [ "/"; "etc"; "usr"; "bin"; "passwd"; "hosts"; "vice"; "pkg"; "sysb";
    "fs1"; "..."; ".:"; ".."; "."; "nosuch" ]

(* The predictor never contradicts the dynamic checker: random scheme,
   random probe, random fuel. *)
let prop_predictor_never_contradicts =
  QCheck.Test.make ~name:"predictor never contradicts Coherence.check"
    ~count:200
    QCheck.(
      triple small_nat
        (list_of_size Gen.(1 -- 5) (oneofl atom_pool))
        small_nat)
    (fun (seed, atoms, fuel_seed) ->
      QCheck.assume (atoms <> []);
      let scheme =
        List.nth Harness.Sample.schemes
          (seed mod List.length Harness.Sample.schemes)
      in
      let w =
        match Harness.Sample.world scheme with
        | Some w -> w
        | None -> assert false
      in
      let st = w.Harness.Sample.store in
      let rule = w.Harness.Sample.rule in
      let occs = occs_of w in
      let probe = N.of_atoms (List.map N.atom atoms) in
      let fuel = 1 + (fuel_seed mod 6) in
      A.Predict.agrees
        (A.Predict.predict ~fuel st rule occs probe)
        (Naming.Coherence.check st rule occs probe)
      && A.Predict.agrees
           (A.Predict.predict st rule occs probe)
           (Naming.Coherence.check st rule occs probe))

(* Randomly generated unix-style worlds (docgen projects plus subtree
   surgery, two processes, one chrooted) analyze without errors. *)
let prop_random_worlds_error_free =
  QCheck.Test.make ~name:"random worlds analyze error-free" ~count:25
    QCheck.small_nat (fun seed ->
      let st = S.create () in
      let fs = Vfs.Fs.create st in
      let rng = Dsim.Rng.create (Int64.of_int (seed + 1)) in
      let project =
        Workload.Docgen.build fs ~at:"p" ~rng ~spec:Workload.Docgen.default_spec
      in
      let mnt = Vfs.Fs.mkdir_path fs "/mnt" in
      Vfs.Subtree.relocate fs ~src:(Vfs.Fs.root fs) ~name:"p" ~dst:mnt ();
      let clone = Vfs.Subtree.copy fs project in
      Vfs.Fs.link fs ~dir:mnt "copy" clone;
      S.bind st ~dir:clone N.parent_atom mnt;
      Vfs.Subtree.attach fs ~dir:(Vfs.Fs.root fs) ~name:"alias" project;
      let env = Schemes.Process_env.create st in
      let p0 = Schemes.Process_env.spawn ~label:"p0" ~root:(Vfs.Fs.root fs) env in
      let chroot_dir = if seed mod 2 = 0 then Vfs.Fs.root fs else mnt in
      let p1 = Schemes.Process_env.spawn ~label:"p1" ~root:chroot_dir env in
      let subject =
        A.Subject.v ~rule:(Schemes.Process_env.rule env)
          ~activities:[ p0; p1 ] st
      in
      let r = A.Engine.analyze ~label:"random" subject in
      (not (A.Engine.has_errors r))
      (* and, on the same worlds, the predictor agrees with the checker
         over the default probe set *)
      && List.for_all
           (fun probe ->
             let occs =
               List.map Naming.Occurrence.generated [ p0; p1 ]
             in
             A.Predict.agrees
               (A.Predict.predict st (Schemes.Process_env.rule env) occs probe)
               (Naming.Coherence.check st (Schemes.Process_env.rule env) occs
                  probe))
           subject.A.Subject.probes)

let suite =
  [
    Alcotest.test_case "broken world codes" `Quick test_broken_codes;
    Alcotest.test_case "broken world gates" `Quick test_broken_gates;
    Alcotest.test_case "broken world pretty output" `Quick test_broken_pretty;
    Alcotest.test_case "codes match catalogue" `Quick test_codes_in_catalogue;
    Alcotest.test_case "broken world JSON golden" `Quick
      test_broken_json_golden;
    Alcotest.test_case "min-severity filter" `Quick test_min_severity_filter;
    Alcotest.test_case "predict: same context" `Quick
      test_predict_same_context;
    Alcotest.test_case "predict: convergence" `Quick test_predict_convergence;
    Alcotest.test_case "predict: incoherent, budget" `Quick
      test_predict_incoherent_and_budget;
    Alcotest.test_case "predictor agrees on all samples" `Quick
      test_predictor_agrees_on_samples;
    Alcotest.test_case "sample schemes analyze error-free" `Quick
      test_samples_error_free;
    QCheck_alcotest.to_alcotest prop_predictor_never_contradicts;
    QCheck_alcotest.to_alcotest prop_random_worlds_error_free;
  ]
