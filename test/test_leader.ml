(* Tests for the `Leader_log consistency tier — leader election, log
   replication, atomic multi-name actions, and failover.

   - chaos-level: the default fault schedule converges under leader
     mode, every transaction gets an accounted outcome, and the JSON is
     deterministic and jobs-invariant;
   - transaction semantics: bind_group and atomic_rename commit or
     abort as a unit;
   - acceptance: partition the leader off alone — the minority leader
     deposes itself, its uncommitted transaction aborts, and after the
     heal the majority history wins everywhere;
   - qcheck: under random seeded fault schedules, committed
     transactions are never lost and all replicas agree on one
     committed log (the leader-mode answer to NG201). *)

module En = Dsim.Engine
module Net = Dsim.Network
module Rpc = Dsim.Rpc
module Rng = Dsim.Rng
module Ns = Dsim.Nameserver
module Ch = Dsim.Chaos
module Ctr = Dsim.Counters
module N = Naming.Name
module E = Naming.Entity

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
let leader_default = { Ch.default with Ch.mode = `Leader_log }

(* ------------------------------------------------------------------ *)
(* Chaos harness under leader mode.                                    *)

let test_leader_chaos_converges () =
  let r = Ch.run ~config:leader_default ~spec ~probes () in
  check b "replicas reconverged" true r.Ch.converged;
  check i "all writes issued" leader_default.Ch.writes r.Ch.writes_sent;
  check i "every txn accounted" r.Ch.writes_sent
    (r.Ch.txns_committed + r.Ch.txns_aborted + r.Ch.txns_unknown);
  (* the default schedule denies quorum for most of the write window —
     leader mode answers with unknowns where LWW would have acked;
     enough transactions must still commit to prove the path works *)
  check b "a good share of txns committed" true (r.Ch.txns_committed >= 5);
  check b "a leader got elected" true (Ctr.get r.Ch.ns Ns.elections >= 1);
  check i "no LWW losses in leader mode" 0 (Ctr.get r.Ch.ns Ns.lww_losses);
  (* the cluster may commit transactions whose clients had already
     given up — so its commit count dominates the client-observed one *)
  check b "cluster commits dominate client-observed commits" true
    (Ctr.get r.Ch.ns Ns.txns_committed >= r.Ch.txns_committed);
  check b "commit latency measured" true
    (r.Ch.txns_committed = 0 || r.Ch.latency_mean > 0.0)

let test_leader_json_deterministic_and_jobs_parity () =
  let j1 =
    Ch.to_json ~scheme:"t" (Ch.run ~config:leader_default ~spec ~probes ())
  in
  let j2 =
    Ch.to_json ~scheme:"t" (Ch.run ~config:leader_default ~spec ~probes ())
  in
  let j4 =
    Ch.to_json ~scheme:"t"
      (Ch.run ~jobs:4 ~config:leader_default ~spec ~probes ())
  in
  check Alcotest.string "same seed, same bytes" j1 j2;
  check Alcotest.string "jobs do not change the run" j1 j4

(* ------------------------------------------------------------------ *)
(* A direct cluster harness: build a leader-mode cluster, drive the
   client protocol by hand, and look inside the logs afterwards.       *)

type harness = {
  engine : En.t;
  net : (Ns.request, Ns.response) Rpc.message Net.t;
  cluster : Ns.t;
  ep : (Ns.request, Ns.response) Rpc.endpoint;
  cnode : Net.node_id;
  crng : Rng.t;
  observed : (int, [ `Committed | `Aborted ]) Hashtbl.t;
      (* tseq -> the outcome the CLIENT saw *)
}

let make_harness ?(drop = 0.0) ?(seed = 11L) ?(replicas = 3) () =
  let rng = Rng.create seed in
  let engine = En.create () in
  (* a tight LAN: replicas a millisecond-scale round trip apart, so the
     period-1.0 protocol timings below are comfortable *)
  let net =
    Net.create
      ~config:
        {
          Net.default_config with
          Net.drop_probability = drop;
          latency = 0.05;
          jitter = 0.01;
        }
      ~engine ~rng:(Rng.split rng) ()
  in
  let cluster =
    Ns.create ~mode:`Leader_log ~network:net ~rng:(Rng.split rng) ~replicas
      spec
  in
  let cnode = Net.add_node net ~label:"client" in
  let ep = Rpc.create net ~node:cnode ~port:9 () in
  {
    engine;
    net;
    cluster;
    ep;
    cnode;
    crng = Rng.split rng;
    observed = Hashtbl.create 16;
  }

let later h d f = ignore (En.schedule h.engine ~delay:d f)

(* The two-phase client protocol, compact: chase redirects, poll until
   decided, give up at [deadline_at] (leaves no record = unknown). *)
let drive h ~txn ~action ~deadline_at =
  let n = Ns.replicas h.cluster in
  let rec submit r =
    let left = deadline_at -. En.now h.engine in
    if left > 0.0 then
      Rpc.call_retry h.ep
        ~to_:(Ns.replica_address h.cluster r)
        ~timeout:1.0 ~rng:h.crng ~attempts:2 ~deadline:left
        (Ns.Submit { txn; action })
        ~on_reply:(function
          | Ok (Ns.Submitted _) -> poll r
          | Ok (Ns.Outcome_is o) -> note o r
          | Ok (Ns.Redirect (Some l)) when l <> r ->
              later h 0.25 (fun () -> submit l)
          | Ok (Ns.Redirect _) -> later h 1.0 (fun () -> submit ((r + 1) mod n))
          | Ok _ -> ()
          | Error (`Timeout | `Unavailable) ->
              later h 0.5 (fun () -> submit ((r + 1) mod n)))
  and poll r =
    let left = deadline_at -. En.now h.engine in
    if left > 0.0 then
      Rpc.call_retry h.ep
        ~to_:(Ns.replica_address h.cluster r)
        ~timeout:1.0 ~rng:h.crng ~attempts:2 ~deadline:left (Ns.Query txn)
        ~on_reply:(function
          | Ok (Ns.Outcome_is o) -> note o r
          | Ok (Ns.Redirect (Some l)) when l <> r ->
              later h 0.25 (fun () -> poll l)
          | Ok (Ns.Redirect _) -> later h 1.0 (fun () -> poll ((r + 1) mod n))
          | Ok _ -> ()
          | Error (`Timeout | `Unavailable) ->
              later h 0.5 (fun () -> poll ((r + 1) mod n)))
  and note o r =
    match o with
    | Ns.Committed -> Hashtbl.replace h.observed txn.Ns.tseq `Committed
    | Ns.Aborted _ -> Hashtbl.replace h.observed txn.Ns.tseq `Aborted
    | Ns.Pending -> later h 0.5 (fun () -> poll r)
  in
  submit 0

let submit_at h time tseq action =
  ignore
    (En.schedule h.engine ~delay:time (fun () ->
         drive h
           ~txn:{ Ns.client = 0; tseq }
           ~action
           ~deadline_at:(time +. 30.0)))

(* The client-visible writes in a committed log, in commit order. *)
let committed_binds log =
  List.concat_map
    (fun ((txn : Ns.txn_id), action) ->
      if txn.Ns.client < 0 then [] (* leader no-op *)
      else
        match action with
        | Ns.Bind_group binds -> List.map (fun bnd -> (txn.Ns.tseq, bnd)) binds
        | Ns.Atomic_rename _ -> [])
    log

(* ------------------------------------------------------------------ *)
(* Transaction semantics.                                              *)

let bind path atom target = (N.of_string path, N.atom atom, target)

let test_bind_group_atomic () =
  let h = make_harness () in
  Ns.start_anti_entropy ~period:1.0 ~timeout:1.0 h.cluster;
  (* good group: two binds land together *)
  submit_at h 6.0 1
    (Ns.Bind_group [ bind "/a" "p" (Some "k1"); bind "/c" "q" (Some "k3") ]);
  (* bad group: one unknown dir poisons the whole group *)
  submit_at h 9.0 2
    (Ns.Bind_group
       [ bind "/a" "r" (Some "k2"); bind "/nowhere" "s" (Some "k1") ]);
  ignore (En.run ~until:40.0 h.engine);
  Ns.stop_anti_entropy h.cluster;
  check b "cluster converged" true (Ns.converged h.cluster);
  check (Alcotest.option b) "txn 1 committed" (Some true)
    (Option.map (( = ) `Committed) (Hashtbl.find_opt h.observed 1));
  check (Alcotest.option b) "txn 2 aborted" (Some true)
    (Option.map (( = ) `Aborted) (Hashtbl.find_opt h.observed 2));
  let k1 = Option.get (Ns.leaf h.cluster "k1") in
  let k3 = Option.get (Ns.leaf h.cluster "k3") in
  for r = 0 to Ns.replicas h.cluster - 1 do
    check b "/a/p bound everywhere" true
      (E.equal k1 (Ns.resolve_at h.cluster r (N.of_string "/a/p")));
    check b "/c/q bound everywhere" true
      (E.equal k3 (Ns.resolve_at h.cluster r (N.of_string "/c/q")));
    (* atomicity: the good half of the aborted group did NOT land *)
    check b "aborted group left no trace" true
      (E.is_undefined (Ns.resolve_at h.cluster r (N.of_string "/a/r")))
  done

let test_atomic_rename () =
  let h = make_harness () in
  Ns.start_anti_entropy ~period:1.0 ~timeout:1.0 h.cluster;
  (* move the existing /a/x binding to /c/x2 *)
  submit_at h 6.0 1
    (Ns.Atomic_rename
       {
         src_path = N.of_string "/a";
         src_atom = N.atom "x";
         dst_path = N.of_string "/c";
         dst_atom = N.atom "x2";
       });
  (* renaming an unbound source aborts *)
  submit_at h 9.0 2
    (Ns.Atomic_rename
       {
         src_path = N.of_string "/a";
         src_atom = N.atom "ghost";
         dst_path = N.of_string "/c";
         dst_atom = N.atom "g2";
       });
  ignore (En.run ~until:40.0 h.engine);
  Ns.stop_anti_entropy h.cluster;
  check b "cluster converged" true (Ns.converged h.cluster);
  check (Alcotest.option b) "rename committed" (Some true)
    (Option.map (( = ) `Committed) (Hashtbl.find_opt h.observed 1));
  check (Alcotest.option b) "ghost rename aborted" (Some true)
    (Option.map (( = ) `Aborted) (Hashtbl.find_opt h.observed 2));
  let k1 = Option.get (Ns.leaf h.cluster "k1") in
  for r = 0 to Ns.replicas h.cluster - 1 do
    check b "source gone" true
      (E.is_undefined (Ns.resolve_at h.cluster r (N.of_string "/a/x")));
    check b "destination bound to the same leaf" true
      (E.equal k1 (Ns.resolve_at h.cluster r (N.of_string "/c/x2")))
  done

(* ------------------------------------------------------------------ *)
(* Acceptance: depose a minority leader; majority history wins.        *)

let test_minority_leader_deposed () =
  let h = make_harness ~seed:5L () in
  Ns.start_anti_entropy ~period:1.0 ~timeout:1.0 h.cluster;
  (* a committed write before the fault *)
  submit_at h 6.0 1 (Ns.Bind_group [ bind "/a" "before" (Some "k1") ]);
  let old_leader = ref (-1) in
  let orphan = { Ns.client = 7; tseq = 99 } in
  ignore
    (En.schedule h.engine ~delay:12.0 (fun () ->
         (* cut whoever leads off alone; the client stays with the
            majority *)
         let l = Option.value ~default:0 (Ns.leader_of h.cluster) in
         old_leader := l;
         let lnode = Ns.replica_node h.cluster l in
         let rest =
           List.filter
             (fun nd -> nd <> lnode)
             (List.init (Ns.replicas h.cluster) (Ns.replica_node h.cluster))
         in
         Net.partition h.net [ lnode ] (h.cnode :: rest);
         (* hand the deposed leader a transaction it can append but
            never commit: inject it server-side, as a client on the
            minority side would *)
         match
           Ns.write_local h.cluster l
             (Ns.Submit
                {
                  txn = orphan;
                  action = Ns.Bind_group [ bind "/a" "orphan" (Some "k2") ];
                })
         with
         | Ns.Submitted _ -> ()
         | _ -> Alcotest.fail "minority leader refused the append"));
  (* while the partition holds, the majority elects and commits *)
  submit_at h 18.0 2 (Ns.Bind_group [ bind "/c" "during" (Some "k3") ]);
  ignore
    (En.schedule h.engine ~delay:26.0 (fun () ->
         (* lease expired well before the heal: the minority leader has
            deposed itself *)
         let l = !old_leader in
         check b "old leader stepped down" true
           (Ns.leader_of h.cluster <> Some l || Ns.term_at h.cluster l > 0);
         check b "majority elected a new leader" true
           (match Ns.leader_of h.cluster with
           | Some l' -> l' <> l
           | None -> false);
         Net.heal h.net));
  ignore (En.run ~until:60.0 h.engine);
  Ns.stop_anti_entropy h.cluster;
  check b "cluster reconverged after heal" true (Ns.converged h.cluster);
  check (Alcotest.option b) "pre-fault txn committed" (Some true)
    (Option.map (( = ) `Committed) (Hashtbl.find_opt h.observed 1));
  check (Alcotest.option b) "majority-side txn committed" (Some true)
    (Option.map (( = ) `Committed) (Hashtbl.find_opt h.observed 2));
  (* the orphaned append was erased by log repair: it is in nobody's
     committed log, its binding is nowhere, and the leader's sticky
     answer for it is Aborted *)
  let logs =
    List.init (Ns.replicas h.cluster) (Ns.committed_log h.cluster)
  in
  List.iteri
    (fun r log ->
      check b "logs agree" true (log = List.nth logs 0);
      check b "orphan not in any committed log" false
        (List.exists (fun (txn, _) -> txn = orphan) log);
      check b "orphan binding nowhere" true
        (E.is_undefined (Ns.resolve_at h.cluster r (N.of_string "/a/orphan")));
      check b "majority write everywhere" false
        (E.is_undefined (Ns.resolve_at h.cluster r (N.of_string "/c/during"))))
    logs;
  let leader = Option.get (Ns.leader_of h.cluster) in
  (match Ns.write_local h.cluster leader (Ns.Query orphan) with
  | Ns.Outcome_is (Ns.Aborted _) -> ()
  | _ -> Alcotest.fail "leader did not sticky-abort the orphan");
  check (Alcotest.option b) "abort recorded at the leader" (Some true)
    (Option.map
       (fun o -> match o with Ns.Aborted _ -> true | _ -> false)
       (Ns.outcome_at h.cluster leader orphan))

(* ------------------------------------------------------------------ *)
(* qcheck: no committed transaction is ever lost, logs always agree.   *)

let prop_no_lost_commits =
  QCheck.Test.make ~name:"leader log: commits survive any seeded schedule"
    ~count:12 QCheck.small_nat (fun seed ->
      let srng = Rng.create (Int64.of_int ((seed * 7919) + 13)) in
      let drop = Rng.pick srng [ 0.0; 0.05; 0.15 ] in
      let h =
        make_harness ~drop ~seed:(Int64.of_int ((seed * 31) + 7)) ()
      in
      (* random fault: either a partition window or a crash window *)
      (if Rng.bool srng 0.7 then begin
         let at = 4.0 +. Rng.float srng 8.0 in
         let len = 3.0 +. Rng.float srng 8.0 in
         let victim = Rng.int srng 3 in
         let vnode = Ns.replica_node h.cluster victim in
         let rest =
           List.filter
             (fun nd -> nd <> vnode)
             (List.init 3 (Ns.replica_node h.cluster))
         in
         if Rng.bool srng 0.5 then begin
           ignore
             (En.schedule h.engine ~delay:at (fun () ->
                  Net.partition h.net [ vnode ] (h.cnode :: rest)));
           ignore
             (En.schedule h.engine ~delay:(at +. len) (fun () ->
                  Net.heal h.net))
         end
         else begin
           ignore
             (En.schedule h.engine ~delay:at (fun () ->
                  Net.set_node_up h.net vnode false));
           ignore
             (En.schedule h.engine ~delay:(at +. len) (fun () ->
                  Net.set_node_up h.net vnode true))
         end
       end);
      Ns.start_anti_entropy ~period:1.0 ~timeout:1.0 h.cluster;
      let writes =
        List.init 8 (fun k ->
            let path = Rng.pick srng [ "/a"; "/a/b"; "/c" ] in
            let atom = Printf.sprintf "w%d" k in
            let target = Rng.pick srng [ Some "k1"; Some "k2"; Some "k3" ] in
            (1.0 +. Rng.float srng 16.0, k + 1, (path, atom, target)))
      in
      List.iter
        (fun (time, tseq, (path, atom, target)) ->
          submit_at h time tseq (Ns.Bind_group [ bind path atom target ]))
        writes;
      ignore (En.run ~until:120.0 h.engine);
      Ns.stop_anti_entropy h.cluster;
      if not (Ns.converged h.cluster) then
        QCheck.Test.fail_reportf "seed %d: did not reconverge" seed;
      let logs = List.init 3 (Ns.committed_log h.cluster) in
      List.iter
        (fun log ->
          if log <> List.nth logs 0 then
            QCheck.Test.fail_reportf "seed %d: committed logs disagree" seed)
        logs;
      let binds = committed_binds (List.nth logs 0) in
      (* every commit the client observed is in the common log *)
      Hashtbl.iter
        (fun tseq outcome ->
          if
            outcome = `Committed
            && not (List.exists (fun (ts, _) -> ts = tseq) binds)
          then
            QCheck.Test.fail_reportf "seed %d: committed txn %d lost" seed
              tseq)
        h.observed;
      (* single-name histories are linearizable: the last committed
         write to each name is the value every replica resolves *)
      let last = Hashtbl.create 8 in
      List.iter
        (fun (_, (path, atom, target)) ->
          Hashtbl.replace last (N.to_string path, N.atom_to_string atom)
            target)
        binds;
      Hashtbl.iter
        (fun (path, atom) target ->
          let full = N.of_string (path ^ "/" ^ atom) in
          for r = 0 to 2 do
            let got = Ns.resolve_at h.cluster r full in
            let ok =
              match target with
              | None -> E.is_undefined got
              | Some key ->
                  E.equal (Option.get (Ns.leaf h.cluster key)) got
            in
            if not ok then
              QCheck.Test.fail_reportf "seed %d: %s/%s wrong at replica %d"
                seed path atom r
          done)
        last;
      true)

let suite =
  [
    Alcotest.test_case "chaos: leader mode converges" `Quick
      test_leader_chaos_converges;
    Alcotest.test_case "chaos: leader json deterministic, jobs parity" `Quick
      test_leader_json_deterministic_and_jobs_parity;
    Alcotest.test_case "bind_group commits or aborts as a unit" `Quick
      test_bind_group_atomic;
    Alcotest.test_case "atomic_rename moves a binding" `Quick
      test_atomic_rename;
    Alcotest.test_case "minority leader deposed, majority history wins"
      `Quick test_minority_leader_deposed;
    QCheck_alcotest.to_alcotest prop_no_lost_commits;
  ]
