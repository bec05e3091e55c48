(* Tests for the replication coherence analyzer (Analysis.Clusterstate
   + Analysis.Replpasses): the broken-cluster fixture trips every NG2xx
   code with golden JSON and SARIF output, diagnostic lists are
   byte-identical at any job count for all three analyzer families, and
   — the soundness contract — every error-severity diagnostic over
   seeded random schedules is witnessed by a chaos replay of the same
   schedule. *)

module A = Analysis
module Cs = Analysis.Clusterstate
module Rp = Analysis.Replpasses
module Ns = Dsim.Nameserver
module Ch = Dsim.Chaos
module Rng = Dsim.Rng
module Ctr = Dsim.Counters
module N = Naming.Name

let check = Alcotest.check
let b = Alcotest.bool
let sl = Alcotest.(list string)
let s = Alcotest.string

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let report_json r =
  (* NG2xx diagnostics carry no store entities; any store renders them. *)
  Naming.Json.to_string_pretty (A.Engine.to_json (Naming.Store.create ()) r)

(* ------------------------------------------------------------------ *)
(* The broken-cluster fixture.                                         *)

let test_broken_codes () =
  let _st, r = Broken_cluster.report () in
  check sl "diagnostic codes in report order" Broken_cluster.expected_codes
    (List.map (fun d -> d.A.Diagnostic.code) r.A.Engine.diagnostics);
  check b "gates on errors" true (A.Engine.has_errors r);
  List.iter
    (fun d ->
      match
        List.find_opt
          (fun (c, _, _) -> String.equal c d.A.Diagnostic.code)
          A.Diagnostic.catalogue
      with
      | None -> Alcotest.failf "code %s not in the catalogue" d.A.Diagnostic.code
      | Some (_, sev, _) ->
          check b
            (Printf.sprintf "%s severity matches catalogue" d.A.Diagnostic.code)
            true
            (sev = d.A.Diagnostic.severity))
    r.A.Engine.diagnostics

let test_broken_json_golden () =
  let _st, r = Broken_cluster.report () in
  check s "golden JSON report" Broken_cluster.expected_json (report_json r)

let test_broken_sarif () =
  let _st, r = Broken_cluster.report () in
  let sarif =
    Naming.Json.to_string_pretty (A.Sarif.render [ A.Sarif.of_report r ])
  in
  List.iter
    (fun code ->
      check b (code ^ " appears in SARIF") true
        (contains ~sub:(Printf.sprintf "\"id\": \"%s\"" code) sarif))
    [ "NG201"; "NG202"; "NG203"; "NG204"; "NG205"; "NG206"; "NG207"; "NG208" ];
  check b "results carry error level" true
    (contains ~sub:"\"level\": \"error\"" sarif)

(* ------------------------------------------------------------------ *)
(* The leader-mode fixture: NG209/NG210 from the availability pass,
   LWW passes discharged.                                              *)

let test_leader_broken_codes () =
  let st, r = Broken_cluster.leader_report () in
  check sl "diagnostic codes in report order"
    Broken_cluster.leader_expected_codes
    (List.map (fun d -> d.A.Diagnostic.code) r.A.Engine.diagnostics);
  check b "warnings only, no gate" false (A.Engine.has_errors r);
  check sl "leader mode runs spec + availability passes only"
    Rp.leader_pass_ids r.A.Engine.passes_run;
  (* the window arithmetic: quorum is denied exactly while the crash
     overlaps the partition *)
  (match Cs.no_quorum_windows st with
  | [ (s, e) ] ->
      check (Alcotest.float 1e-9) "no-quorum window starts at crash" 15.0 s;
      check (Alcotest.float 1e-9) "no-quorum window ends at recovery" 35.0 e
  | ws ->
      Alcotest.failf "expected one no-quorum window, got %d" (List.length ws));
  List.iter
    (fun d ->
      match
        List.find_opt
          (fun (c, _, _) -> String.equal c d.A.Diagnostic.code)
          A.Diagnostic.catalogue
      with
      | None -> Alcotest.failf "code %s not in the catalogue" d.A.Diagnostic.code
      | Some (_, sev, _) ->
          check b
            (Printf.sprintf "%s severity matches catalogue" d.A.Diagnostic.code)
            true
            (sev = d.A.Diagnostic.severity))
    r.A.Engine.diagnostics

(* The same schedule under LWW keeps the five LWW passes and never
   emits the leader-only codes; under leader mode the availability
   verdicts quantify over every fault placement, so a partition the
   majority side survives alone yields no NG209. *)
let test_mode_gating () =
  let lww_subject =
    Rp.subject
      ~workload:Broken_cluster.leader_workload
      { Broken_cluster.leader_config with Ch.mode = `Lww_ae }
      Broken_cluster.spec
  in
  let _st, r = Rp.report ~label:"lww" lww_subject in
  check sl "lww mode runs the five LWW passes" Rp.pass_ids
    r.A.Engine.passes_run;
  check b "lww mode never emits NG209/NG210" false
    (List.exists
       (fun d ->
         String.equal d.A.Diagnostic.code "NG209"
         || String.equal d.A.Diagnostic.code "NG210")
       r.A.Engine.diagnostics);
  (* partition only, no crash: {ns1, ns2} keeps a quorum throughout *)
  let survivable =
    Rp.subject
      ~workload:Broken_cluster.leader_workload
      { Broken_cluster.leader_config with Ch.crash_for = 0.0 }
      Broken_cluster.spec
  in
  let st, r = Rp.report ~label:"survivable" survivable in
  check b "no no-quorum window when a majority side survives" true
    (Cs.no_quorum_windows st = []);
  check b "hence no NG209/NG210" false
    (List.exists
       (fun d ->
         String.equal d.A.Diagnostic.code "NG209"
         || String.equal d.A.Diagnostic.code "NG210")
       r.A.Engine.diagnostics);
  (* with [partition_leader] the isolated replica is unknown, so the
     same overlap is no longer provable: the crash victim could be the
     isolated one, leaving the other two a quorum *)
  let unprovable =
    Rp.subject
      ~workload:Broken_cluster.leader_workload
      { Broken_cluster.leader_config with Ch.partition_leader = true }
      Broken_cluster.spec
  in
  let st, _r = Rp.report ~label:"unprovable" unprovable in
  check b "partition_leader overlap is not provably quorum-denying" true
    (Cs.no_quorum_windows st = [])

(* ------------------------------------------------------------------ *)
(* Determinism: the three analyzer families produce byte-identical
   reports at any job count (the CLI's --jobs 1 vs --jobs 4).          *)

let test_jobs_parity () =
  let eq what js1 js4 =
    List.iteri
      (fun i (j1, j4) ->
        check s (Printf.sprintf "%s report %d identical across jobs" what i) j1
          j4)
      (List.combine js1 js4)
  in
  (* analyze *)
  let subjects () =
    [ ("w1", Broken_world.build ()); ("w2", Broken_world.build ()) ]
  in
  let analyze jobs =
    let subjects = subjects () in
    List.map2
      (fun (_, subj) r ->
        Naming.Json.to_string_pretty (A.Engine.to_json subj.A.Subject.store r))
      subjects
      (A.Engine.analyze_many ~jobs subjects)
  in
  eq "analyze" (analyze 1) (analyze 4);
  (* check-script *)
  let scripts = [ ("s1", Broken_script.plan ()); ("s2", Broken_script.plan ()) ] in
  let flow jobs =
    List.map
      (fun (_res, r) -> report_json r)
      (A.Flowpasses.report_many ~config:Broken_script.config ~jobs scripts)
  in
  eq "check-script" (flow 1) (flow 4);
  (* check-cluster *)
  let clusters =
    [
      ("c1", Broken_cluster.subject);
      ("c2", Rp.subject Ch.default Broken_cluster.spec);
      ("c3", Broken_cluster.leader_subject);
    ]
  in
  let cluster jobs =
    List.map
      (fun (_st, r) -> report_json r)
      (Rp.report_many ~jobs clusters)
  in
  eq "check-cluster" (cluster 1) (cluster 4)

(* ------------------------------------------------------------------ *)
(* Soundness: cross-validation against the simulator. Every
   error-severity NG2xx diagnostic is a Must/Never fact about EVERY
   execution of the schedule, so a chaos replay of the same config,
   spec and (default) workload must witness it:

   - NG201 (LWW race): the replay loses an update or fails to converge;
   - NG202 (pull graph not strongly connected): the replay provably
     fails to reconverge;
   - NG203 (staleness over a fault window): the witness sample — the
     diagnostic's [loc] is its index — reports divergence;
   - NG204 (durability hole): the replay loses a client write outright;

   and dually, a schedule the analyzer calls clean (no errors, no
   NG208 undecided verdict) must reconverge in replay. *)

let spec =
  {
    Ns.dirs = [ N.of_string "/a"; N.of_string "/a/b"; N.of_string "/c" ];
    leaves = [ ("k1", "one"); ("k2", "two"); ("k3", "three") ];
    links =
      [
        (N.of_string "/a/x", "k1");
        (N.of_string "/a/b/y", "k2");
        (N.of_string "/c/z", "k3");
      ];
  }

let probes = spec.Ns.dirs @ List.map fst spec.Ns.links

(* A deterministic schedule drawn from the seed: replicas 2 to
   [max_replicas] (default 4), half the schedules loss-free (the only
   ones that can prove Must facts), fault windows that may or may not
   heal in-run, a modest write load. *)
let config_of_seed ?(max_replicas = 4) seed =
  let rng = Rng.create (Int64.of_int ((seed * 7919) + 17)) in
  let replicas = 2 + Rng.int rng (max_replicas - 1) in
  let drop = if Rng.bool rng 0.5 then 0.0 else 0.01 +. Rng.float rng 0.08 in
  let partition_for = Rng.pick rng [ 0.0; 0.0; 10.0; 20.0; 1000.0 ] in
  let crash_for = Rng.pick rng [ 0.0; 0.0; 10.0; 20.0 ] in
  let dedup_window = if Rng.bool rng 0.25 then Some 1 else None in
  {
    Ch.default with
    Ch.seed;
    replicas;
    drop;
    duplicate = drop;
    partition_at = 10.0;
    partition_for;
    crash_at = 15.0;
    crash_for;
    writes = 4 + Rng.int rng 9;
    write_window = 30.0;
    call_attempts = 2 + Rng.int rng 2;
    dedup_window;
    duration = 60.0;
  }

let prop_errors_replay_witnessed =
  QCheck.Test.make ~name:"NG2xx errors are replay-witnessed; clean converges"
    ~count:120 QCheck.small_nat (fun seed ->
      let config = config_of_seed seed in
      let subject = Rp.subject config spec in
      let _st, diags = Rp.diagnostics subject in
      let r = Ch.run ~config ~spec ~probes () in
      let witnessed (d : A.Diagnostic.t) =
        match d.A.Diagnostic.code with
        | "NG201" -> Ctr.get r.Ch.ns Ns.lww_losses > 0 || not r.Ch.converged
        | "NG202" -> not r.Ch.converged
        | "NG203" -> (
            match d.A.Diagnostic.loc with
            | Some k ->
                k < List.length r.Ch.samples
                && not (List.nth r.Ch.samples k).Ch.converged
            | None -> false)
        | "NG204" -> r.Ch.writes_lost > 0
        | _ -> true
      in
      List.iter
        (fun (d : A.Diagnostic.t) ->
          if d.A.Diagnostic.severity = A.Diagnostic.Error && not (witnessed d)
          then
            QCheck.Test.fail_reportf
              "seed %d: %s not witnessed by replay (converged=%b \
               lww_losses=%d writes_lost=%d): %s"
              seed d.A.Diagnostic.code r.Ch.converged
              (Ctr.get r.Ch.ns Ns.lww_losses)
              r.Ch.writes_lost d.A.Diagnostic.message)
        diags;
      let clean =
        (not
           (List.exists
              (fun d -> d.A.Diagnostic.severity = A.Diagnostic.Error)
              diags))
        && not
             (List.exists
                (fun d -> String.equal d.A.Diagnostic.code "NG208")
                diags)
      in
      if clean && not r.Ch.converged then
        QCheck.Test.fail_reportf
          "seed %d: analyzer-clean schedule failed to reconverge in replay"
          seed;
      true)

(* ------------------------------------------------------------------ *)
(* The arrival rows against their reference: the n-round Bellman-Ford
   the rows replaced, every pull edge relaxed n times with no early
   exit. The rows stop at the first round that changes nothing. *)

let bellman_ford (st : Cs.t) ~origin ~from_ =
  let n = st.Cs.config.Ch.replicas in
  let have = Array.make n infinity in
  have.(origin) <- from_;
  for _hop = 1 to n do
    for p = 0 to n - 1 do
      for q = 0 to n - 1 do
        if q <> p then begin
          let a = Cs.transfer st p q have.(p) in
          if a < have.(q) then have.(q) <- a
        end
      done
    done
  done;
  have

let prop_rows_match_bellman_ford =
  QCheck.Test.make ~name:"arrival rows equal the n-round Bellman-Ford"
    ~count:150 QCheck.small_nat (fun seed ->
      let config = config_of_seed ~max_replicas:12 seed in
      let st = Cs.of_chaos config spec in
      let row_str r =
        String.concat "; " (Array.to_list (Array.map string_of_float r))
      in
      let agree ~origin ~from_ got =
        let want = bellman_ford st ~origin ~from_ in
        if got <> want then
          QCheck.Test.fail_reportf
            "seed %d (%d replicas): from ns%d at %g got [%s], want [%s]" seed
            config.Ch.replicas origin from_ (row_str got) (row_str want)
      in
      Array.iter
        (fun (w : Cs.write) ->
          let from_ = fst w.Cs.accept in
          agree ~origin:w.Cs.origin ~from_ st.Cs.reach.(w.Cs.index);
          (* the same instant from every other replica *)
          for origin = 0 to config.Ch.replicas - 1 do
            agree ~origin ~from_ (Cs.arrivals st ~origin ~from_)
          done)
        st.Cs.writes;
      true)

let suite =
  [
    Alcotest.test_case "broken cluster codes" `Quick test_broken_codes;
    Alcotest.test_case "broken cluster JSON golden" `Quick
      test_broken_json_golden;
    Alcotest.test_case "broken cluster SARIF" `Quick test_broken_sarif;
    Alcotest.test_case "leader broken cluster codes" `Quick
      test_leader_broken_codes;
    Alcotest.test_case "mode gating of passes" `Quick test_mode_gating;
    Alcotest.test_case "jobs parity across analyzers" `Quick test_jobs_parity;
    QCheck_alcotest.to_alcotest prop_errors_replay_witnessed;
    QCheck_alcotest.to_alcotest prop_rows_match_bellman_ford;
  ]
