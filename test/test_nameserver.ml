(* Tests for Dsim.Nameserver — the replicated name service: mirror
   trees, versioned writes, anti-entropy reconvergence, and the paper's
   §5 weak coherence measured live across replicas. *)

module En = Dsim.Engine
module Net = Dsim.Network
module Rpc = Dsim.Rpc
module Ns = Dsim.Nameserver
module Ctr = Dsim.Counters
module N = Naming.Name
module E = Naming.Entity
module Co = Naming.Coherence

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int

(* /a, /a/b; two shared leaves; /a/x -> k1, /a/b/y -> k2. *)
let small_spec =
  {
    Ns.dirs = [ N.of_string "/a"; N.of_string "/a/b" ];
    leaves = [ ("k1", "one"); ("k2", "two") ];
    links = [ (N.of_string "/a/x", "k1"); (N.of_string "/a/b/y", "k2") ];
  }

let probes =
  small_spec.Ns.dirs @ List.map fst small_spec.Ns.links

let make ?(config = Net.default_config) ?(replicas = 3) () =
  let engine = En.create () in
  let net =
    Net.create ~config ~engine ~rng:(Dsim.Rng.create 42L) ()
  in
  let cluster =
    Ns.create ~network:net ~rng:(Dsim.Rng.create 7L) ~replicas small_spec
  in
  (engine, net, cluster)

let test_mirrors_agree_initially () =
  let _, _, cluster = make () in
  (* every replica resolves the links to the SAME shared leaves *)
  let leaf1 = Ns.resolve_at cluster 0 (N.of_string "/a/x") in
  check b "leaf is defined" false (E.is_undefined leaf1);
  for r = 1 to Ns.replicas cluster - 1 do
    check b "same leaf everywhere" true
      (E.equal leaf1 (Ns.resolve_at cluster r (N.of_string "/a/x")))
  done;
  (* directories are per-replica mirrors: equal only up to replica
     equivalence *)
  let d0 = Ns.resolve_at cluster 0 (N.of_string "/a") in
  let d1 = Ns.resolve_at cluster 1 (N.of_string "/a") in
  check b "distinct mirror dirs" false (E.equal d0 d1);
  check b "but replica-equivalent" true (Ns.equiv cluster d0 d1);
  let report = Ns.measure cluster probes in
  check i "leaf probes strictly coherent" 2 report.Co.coherent;
  check i "dir probes weakly coherent" 2 report.Co.weakly_coherent;
  check i "nothing incoherent" 0 report.Co.incoherent;
  check b "fresh cluster converged" true (Ns.converged cluster)

let test_local_write_then_anti_entropy () =
  let engine, _, cluster = make () in
  (match
     Ns.write_local cluster 0
       (Ns.Write
          { path = N.of_string "/a"; atom = N.atom "z"; target = Some "k2" })
   with
  | Ns.Ack _ -> ()
  | _ -> Alcotest.fail "write not acked");
  (* applied at the origin only: other replicas do not see it yet *)
  check b "replica 1 lags" true
    (E.is_undefined (Ns.resolve_at cluster 1 (N.of_string "/a/z")));
  check b "diverged" false (Ns.converged cluster);
  Ns.start_anti_entropy ~period:2.0 cluster;
  ignore (En.run ~until:30.0 engine);
  Ns.stop_anti_entropy cluster;
  check b "converged" true (Ns.converged cluster);
  let expected = Option.get (Ns.leaf cluster "k2") in
  for r = 0 to Ns.replicas cluster - 1 do
    check b "write visible everywhere" true
      (E.equal expected (Ns.resolve_at cluster r (N.of_string "/a/z")))
  done

let test_nack_on_unknown_path_and_leaf () =
  let _, _, cluster = make () in
  (match
     Ns.write_local cluster 0
       (Ns.Write
          { path = N.of_string "/nope"; atom = N.atom "z"; target = None })
   with
  | Ns.Nack _ -> ()
  | _ -> Alcotest.fail "unknown path accepted");
  match
    Ns.write_local cluster 0
      (Ns.Write
         { path = N.of_string "/a"; atom = N.atom "z"; target = Some "k9" })
  with
  | Ns.Nack _ -> ()
  | _ -> Alcotest.fail "unknown leaf accepted"

(* The acceptance demo: partition the cluster, make conflicting writes
   on both sides, watch the probe become incoherent, heal, and verify
   the replicas reconverge (same LWW winner everywhere) within a bounded
   number of anti-entropy rounds. *)
let test_partition_diverge_heal_reconverge () =
  let engine, net, cluster = make () in
  Net.partition net
    [ Ns.replica_node cluster 0 ]
    [ Ns.replica_node cluster 1; Ns.replica_node cluster 2 ];
  (* conflicting writes for the same binding site on the two sides:
     replica 0 rebinds /a/x to k2, replica 1 unbinds it. Both carry
     Lamport stamp 1, so last-writer-wins breaks the tie on origin and
     the unbind (origin 1 > origin 0) must win everywhere. *)
  ignore
    (Ns.write_local cluster 0
       (Ns.Write
          { path = N.of_string "/a"; atom = N.atom "x"; target = Some "k2" }));
  ignore
    (Ns.write_local cluster 1
       (Ns.Write { path = N.of_string "/a"; atom = N.atom "x"; target = None }));
  let report = Ns.measure cluster probes in
  check b "diverged: some probe incoherent" true (report.Co.incoherent > 0);
  check b "not converged while partitioned" false (Ns.converged cluster);
  (* anti-entropy cannot cross the partition: replicas 1 and 2 agree
     with each other but the cluster as a whole stays split *)
  Ns.start_anti_entropy ~period:2.0 ~timeout:1.0 ~attempts:2 cluster;
  ignore (En.run ~until:20.0 engine);
  check b "still split" false (Ns.converged cluster);
  (* heal, then a bounded number of rounds reconverges: 10 periods is
     far more than the diameter of a 3-replica gossip graph needs *)
  Net.heal net;
  ignore (En.run ~until:40.0 engine);
  Ns.stop_anti_entropy cluster;
  check b "reconverged after heal" true (Ns.converged cluster);
  let final = Ns.measure cluster probes in
  check i "coherence restored" 0 final.Co.incoherent;
  (* the LWW winner (the unbind) took effect on every replica *)
  for r = 0 to Ns.replicas cluster - 1 do
    check b "unbind won everywhere" true
      (E.is_undefined (Ns.resolve_at cluster r (N.of_string "/a/x")))
  done;
  check b "losing write counted" true
    (Ctr.get (Ns.stats cluster) Ns.lww_losses >= 1)

let test_resolve_over_rpc () =
  let engine, net, cluster = make () in
  let cnode = Net.add_node net ~label:"client" in
  let client = Rpc.create net ~node:cnode ~port:9 () in
  let got = ref None in
  Rpc.call_retry client
    ~to_:(Ns.replica_address cluster 0)
    ~timeout:2.0 ~rng:(Dsim.Rng.create 5L) ~attempts:4
    (Ns.Resolve (N.of_string "/a/b/y"))
    ~on_reply:(fun r -> got := Some r);
  ignore (En.run engine);
  match !got with
  | Some (Ok (Ns.Resolved e)) ->
      check b "resolved to the shared leaf" true
        (E.equal e (Option.get (Ns.leaf cluster "k2")))
  | _ -> Alcotest.fail "no resolution over rpc"

let test_spec_of_context_extracts_sample_world () =
  match Harness.Sample.world "unix" with
  | None -> Alcotest.fail "no unix sample world"
  | Some w ->
      let spec = Ns.spec_of_context w.Harness.Sample.store w.Harness.Sample.ctx in
      check b "found directories" true (List.length spec.Ns.dirs > 0);
      check b "found leaves" true (List.length spec.Ns.leaves > 0);
      check b "found links" true (List.length spec.Ns.links > 0);
      (* the extracted tree must be buildable and coherent as a cluster *)
      let engine = En.create () in
      let net =
        Net.create ~config:Net.default_config ~engine
          ~rng:(Dsim.Rng.create 42L) ()
      in
      let cluster =
        Ns.create ~network:net ~rng:(Dsim.Rng.create 7L) ~replicas:2 spec
      in
      let probes = spec.Ns.dirs @ List.map fst spec.Ns.links in
      let report = Ns.measure cluster probes in
      check i "extracted world starts coherent" 0 report.Co.incoherent;
      check b "has strict and weak probes" true
        (report.Co.coherent > 0 && report.Co.weakly_coherent > 0)

(* A sample on a store unchanged since the previous one, over the same
   probe list, is the previous report itself; any store mutation, even
   one that bypasses the write path, is measured afresh. *)
let test_measure_reuses_unchanged () =
  let _, _, cluster = make () in
  let first = Ns.measure cluster probes in
  check b "same probes, unchanged store: same report" true
    (Ns.measure ~jobs:2 cluster (List.map Fun.id probes) == first);
  Naming.Store.unbind (Ns.store cluster)
    ~dir:(Ns.resolve_at cluster 0 (N.of_string "/a"))
    (N.atom "x");
  let after = Ns.measure cluster probes in
  check i "direct unbind seen" 1 after.Co.incoherent;
  check b "and remembered" true (Ns.measure cluster probes == after)

(* A stats snapshot is a copy: the write counters it holds do not move
   when a later write lands. *)
let test_stats_snapshot_fixed () =
  let _, _, cluster = make () in
  let before = Ns.stats cluster in
  (match
     Ns.write_local cluster 0
       (Ns.Write
          { path = N.of_string "/a"; atom = N.atom "z"; target = Some "k1" })
   with
  | Ns.Ack _ -> ()
  | _ -> Alcotest.fail "write not acked");
  check i "snapshot before the write" 0 (Ctr.get before Ns.writes_accepted);
  check i "applied before the write" 0 (Ctr.get before Ns.ops_applied);
  check i "snapshot after the write" 1
    (Ctr.get (Ns.stats cluster) Ns.writes_accepted)

let test_rejects_single_replica () =
  let engine = En.create () in
  let net =
    Net.create ~config:Net.default_config ~engine ~rng:(Dsim.Rng.create 1L) ()
  in
  match Ns.create ~network:net ~rng:(Dsim.Rng.create 1L) ~replicas:1 small_spec with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted a 1-replica cluster"

(* The cluster keeps one engine for its whole life — compiled unless
   NAMING_ENGINE says otherwise — and local writes, anti-entropy rounds
   and log commits patch it in place. After every mutation its samples
   must equal a fresh interpreter's, sequentially and through the
   parallel sweep (which fans compiled snapshots across domains). *)
let engine_probes =
  probes
  @ List.map N.of_string [ "/a/z"; "/a/b/z"; "/z"; "/a/b/x"; "/b"; "/o" ]

let measure_matches_interpreter cluster names =
  let store = Ns.store cluster in
  let measure_with engine jobs =
    Co.measure ~equiv:(Ns.equiv cluster) ~engine ~jobs store
      (Ns.rule cluster) (Ns.occurrences cluster) names
  in
  List.for_all
    (fun jobs ->
      let fresh = measure_with (Naming.Engine.create `Interpreted store) jobs in
      (* [Ns.measure] at jobs 2 reuses the jobs 1 report, so the cluster
         engine's parallel sweep is also checked directly *)
      Ns.measure ~jobs cluster names = fresh
      && measure_with (Naming.Engine.select store) jobs = fresh)
    [ 1; 2 ]

let engine_matches_interpreter cluster =
  measure_matches_interpreter cluster engine_probes

(* The checks [engine_stays_exact] adds after each write: a repeated
   sample with nothing changed (served from the last report), an
   out-of-band bind and unbind of "/o" at one replica straight through
   the store, bypassing the write path, and a sample over a different
   probe list. *)
let reuse_stays_exact cluster k =
  let store = Ns.store cluster in
  let dir = Ns.replica_root cluster (k mod Ns.replicas cluster) in
  let o = N.atom "o" in
  let repeated = engine_matches_interpreter cluster in
  Naming.Store.bind store ~dir o (Option.get (Ns.leaf cluster "k1"));
  let bound = engine_matches_interpreter cluster in
  Naming.Store.unbind store ~dir o;
  let unbound = engine_matches_interpreter cluster in
  repeated && bound && unbound
  && measure_matches_interpreter cluster (List.tl engine_probes)
  && engine_matches_interpreter cluster

let random_binding rng =
  ( Dsim.Rng.pick rng (List.map N.of_string [ "/"; "/a"; "/a/b" ]),
    N.atom (Dsim.Rng.pick rng [ "x"; "y"; "z"; "b" ]),
    Dsim.Rng.pick rng [ Some "k1"; Some "k2"; None ] )

(* Twelve seeded steps, each a local write (at a random replica for
   LWW, as a one-binding transaction at the current leader for the log
   tier) followed by a random stretch of simulated time in which
   anti-entropy or the log protocol runs; the engine is checked after
   every write and every stretch, and once more after the protocol has
   had time to apply everything. The network is a tight LAN and the log
   tier first waits for a leader, so writes land and commit within the
   steps; a run in which no write was ever applied does not count. *)
let engine_stays_exact mode seed =
  let rng = Dsim.Rng.create (Int64.of_int seed) in
  let engine = En.create () in
  let net =
    Net.create
      ~config:{ Net.default_config with Net.latency = 0.05; jitter = 0.01 }
      ~engine ~rng:(Dsim.Rng.split rng) ()
  in
  let cluster =
    Ns.create ~mode ~network:net ~rng:(Dsim.Rng.split rng) ~replicas:3
      small_spec
  in
  let run_for d = ignore (En.run ~until:(En.now engine +. d) engine) in
  Ns.start_anti_entropy ~period:1.0 cluster;
  let ok = ref (engine_matches_interpreter cluster) in
  while
    mode = `Leader_log && Ns.leader_of cluster = None && En.now engine < 60.0
  do
    run_for 0.5
  done;
  for k = 1 to 12 do
    let path, atom, target = random_binding rng in
    (match (mode, Ns.leader_of cluster) with
    | `Lww_ae, _ ->
        ignore
          (Ns.write_local cluster
             (Dsim.Rng.int rng (Ns.replicas cluster))
             (Ns.Write { path; atom; target }))
    | `Leader_log, Some l ->
        ignore
          (Ns.write_local cluster l
             (Ns.Submit
                {
                  txn = { Ns.client = 0; tseq = k };
                  action = Ns.Bind_group [ (path, atom, target) ];
                }))
    | `Leader_log, None -> ());
    ok := !ok && engine_matches_interpreter cluster;
    ok := !ok && reuse_stays_exact cluster k;
    run_for (Dsim.Rng.float rng 1.5);
    ok := !ok && engine_matches_interpreter cluster
  done;
  run_for 20.0;
  Ns.stop_anti_entropy cluster;
  !ok
  && engine_matches_interpreter cluster
  && Ctr.get (Ns.stats cluster) Ns.ops_applied > 0

let test_cluster_engine () =
  let _, _, cluster = make () in
  (match Naming.Engine.env_kind () with
  | Some _ -> ()
  | None ->
      check Alcotest.string "compiled by default" "compiled"
        (Naming.Engine.label (Naming.Engine.select (Ns.store cluster))));
  List.iter
    (fun mode ->
      check b "patched engine = interpreter" true (engine_stays_exact mode 0))
    [ `Lww_ae; `Leader_log ]

let prop_cluster_engine mode name =
  QCheck.Test.make ~name ~count:10 QCheck.small_nat (engine_stays_exact mode)

let suite =
  [
    Alcotest.test_case "mirrors agree initially" `Quick
      test_mirrors_agree_initially;
    Alcotest.test_case "local write + anti-entropy" `Quick
      test_local_write_then_anti_entropy;
    Alcotest.test_case "nack on unknown path/leaf" `Quick
      test_nack_on_unknown_path_and_leaf;
    Alcotest.test_case "partition/diverge/heal/reconverge" `Quick
      test_partition_diverge_heal_reconverge;
    Alcotest.test_case "resolve over rpc" `Quick test_resolve_over_rpc;
    Alcotest.test_case "spec_of_context on a sample world" `Quick
      test_spec_of_context_extracts_sample_world;
    Alcotest.test_case "measure reuses an unchanged sample" `Quick
      test_measure_reuses_unchanged;
    Alcotest.test_case "rejects single replica" `Quick
      test_rejects_single_replica;
    Alcotest.test_case "cluster engine patched in place" `Quick
      test_cluster_engine;
    QCheck_alcotest.to_alcotest
      (prop_cluster_engine `Lww_ae "lww cluster engine = interpreter");
    QCheck_alcotest.to_alcotest
      (prop_cluster_engine `Leader_log "leader cluster engine = interpreter");
    Alcotest.test_case "stats snapshot fixed across a write" `Quick
      test_stats_snapshot_fixed;
  ]
