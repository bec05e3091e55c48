(* Tests for Dsim.Chaos — the fault-injection harness: convergence
   under the default schedule, deterministic JSON, jobs parity, and a
   schedule designed not to converge. *)

module Ns = Dsim.Nameserver
module Ch = Dsim.Chaos
module Ctr = Dsim.Counters
module N = Naming.Name
module Co = Naming.Coherence

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int

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

let test_default_schedule_converges () =
  let r = Ch.run ~config:Ch.default ~spec ~probes () in
  check b "replicas reconverged" true r.Ch.converged;
  check i "all writes issued" Ch.default.Ch.writes r.Ch.writes_sent;
  check b "every sample got taken" true
    (List.length r.Ch.samples
    = int_of_float (Ch.default.Ch.duration /. Ch.default.Ch.sample_every));
  check b "faults actually bit" true
    ((Ctr.get r.Ch.net Dsim.Network.dropped > 0
     || Ctr.get r.Ch.net Dsim.Network.cut > 0)
    && List.exists
         (fun s -> s.Ch.report.Co.incoherent > 0 || not s.Ch.converged)
         r.Ch.samples);
  check b "convergence happened after the heal" true
    (match r.Ch.converge_time with
    | Some t -> t >= r.Ch.heal_at
    | None -> false);
  check b "in bounded anti-entropy rounds" true
    (match r.Ch.rounds_to_converge with Some n -> n <= 10 | None -> false);
  check i "final report fully coherent" 0 r.Ch.final_report.Co.incoherent

let test_json_deterministic_and_jobs_parity () =
  let j1 = Ch.to_json ~scheme:"t" (Ch.run ~config:Ch.default ~spec ~probes ()) in
  let j2 = Ch.to_json ~scheme:"t" (Ch.run ~config:Ch.default ~spec ~probes ()) in
  let j4 =
    Ch.to_json ~scheme:"t" (Ch.run ~jobs:4 ~config:Ch.default ~spec ~probes ())
  in
  check Alcotest.string "same seed, same bytes" j1 j2;
  check Alcotest.string "jobs do not change the run" j1 j4;
  let other =
    Ch.to_json ~scheme:"t"
      (Ch.run ~config:{ Ch.default with Ch.seed = 43 } ~spec ~probes ())
  in
  check b "different seed, different run" false (String.equal j1 other)

(* A partition that outlives the run: replicas cannot reconverge, the
   harness must say so (and the CLI turns this into a nonzero exit). *)
let test_unhealed_partition_fails_to_converge () =
  let config =
    {
      Ch.default with
      Ch.partition_at = 5.0;
      partition_for = 1000.0;
      crash_for = 0.0;
      duration = 60.0;
    }
  in
  let r = Ch.run ~config ~spec ~probes () in
  check b "verdict: not converged" false r.Ch.converged;
  check b "no convergence time" true (r.Ch.converge_time = None);
  check b "divergence is visible in coherence" true
    (r.Ch.final_report.Co.incoherent > 0
    || not (List.for_all (fun (s : Ch.sample) -> s.Ch.converged) r.Ch.samples))

let test_fault_free_run_stays_coherent () =
  let config =
    {
      Ch.default with
      Ch.drop = 0.0;
      duplicate = 0.0;
      partition_for = 0.0;
      crash_for = 0.0;
      duration = 60.0;
    }
  in
  let r = Ch.run ~config ~spec ~probes () in
  check b "converged" true r.Ch.converged;
  check i "no writes lost" 0 r.Ch.writes_lost;
  check i "final coherent" 0 r.Ch.final_report.Co.incoherent

let suite =
  [
    Alcotest.test_case "default schedule converges" `Quick
      test_default_schedule_converges;
    Alcotest.test_case "deterministic json + jobs parity" `Quick
      test_json_deterministic_and_jobs_parity;
    Alcotest.test_case "unhealed partition fails" `Quick
      test_unhealed_partition_fails_to_converge;
    Alcotest.test_case "fault-free run stays coherent" `Quick
      test_fault_free_run_stays_coherent;
  ]
