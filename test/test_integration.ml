(* Integration scenarios across libraries: schemes driven over the
   simulated network, with loss, duplication and reconfiguration. *)

module S = Naming.Store
module E = Naming.Entity
module N = Naming.Name
module O = Naming.Occurrence
module Coh = Naming.Coherence
module Ctr = Dsim.Counters

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int

(* -- 1. name exchange over a lossy network ----------------------------- *)

let test_lossy_exchange () =
  let st = S.create () in
  let world = Schemes.Newcastle.build ~machines:[ "u1"; "u2" ] st in
  let p1 = Schemes.Newcastle.spawn_on world ~machine:"u1" in
  let p2 = Schemes.Newcastle.spawn_on world ~machine:"u2" in
  let engine = Dsim.Engine.create () in
  let net =
    Dsim.Network.create
      ~config:{ Dsim.Network.default_config with drop_probability = 0.3 }
      ~engine ~rng:(Dsim.Rng.create 11L) ()
  in
  let node = Dsim.Network.add_node net ~label:"wire" in
  let actors = Hashtbl.create 4 in
  let actor_of e =
    match Hashtbl.find_opt actors e with
    | Some a -> a
    | None ->
        let a = Dsim.Actor.create net ~node ~port:(Hashtbl.length actors + 1) in
        Hashtbl.replace actors e a;
        a
  in
  let probes = Schemes.Newcastle.absolute_probes world ~machine:"u1" ~max_depth:3 in
  let events =
    List.concat_map
      (fun name ->
        [
          { Workload.Exchange.sender = p1; receiver = p2; name };
          { Workload.Exchange.sender = p2; receiver = p1; name };
        ])
      probes
  in
  let delivered =
    Workload.Exchange.run_over_network ~engine ~actor_of events
  in
  let stats = Dsim.Network.stats net in
  check i "sent all" (List.length events) (Ctr.get stats Dsim.Network.sent);
  check i "accounting adds up" (Ctr.get stats Dsim.Network.sent)
    (Ctr.get stats Dsim.Network.delivered + Ctr.get stats Dsim.Network.dropped
   + Ctr.get stats Dsim.Network.cut);
  check b "some loss" true (Ctr.get stats Dsim.Network.dropped > 0);
  check b "some delivery" true (delivered <> []);
  (* Every delivered name is incoherent between the two machines — loss
     does not change what resolution says. *)
  let rule = Schemes.Newcastle.rule world in
  List.iter
    (fun (sender, receiver, name) ->
      match
        Coh.check st rule
          [ O.generated sender; O.received ~sender ~receiver ]
          name
      with
      | Coh.Incoherent _ -> ()
      | v ->
          Alcotest.failf "expected incoherence for %s: %a" (N.to_string name)
            Coh.pp_verdict v)
    delivered

(* -- 2. remote execution with parameters shipped as messages ----------- *)

let test_remote_exec_pipeline () =
  let st = S.create () in
  let tree = Schemes.Unix_scheme.default_tree in
  let world =
    Schemes.Per_process.build ~subsystems:[ ("port1", tree); ("port2", tree) ] st
  in
  let parent = Schemes.Per_process.spawn ~attach:[ ("fs", "port1") ] world in
  let child =
    Schemes.Per_process.remote_exec world ~parent ~subsystem:"port2"
  in
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create ~engine ~rng:(Dsim.Rng.create 5L) () in
  let n1 = Dsim.Network.add_node net ~label:"port1" in
  let n2 = Dsim.Network.add_node net ~label:"port2" in
  let parent_actor = Dsim.Actor.create net ~node:n1 ~port:1 in
  let child_actor = Dsim.Actor.create net ~node:n2 ~port:1 in
  (* The child resolves every parameter the moment it arrives. *)
  let resolved = ref [] in
  Dsim.Actor.on_receive child_actor (fun env ->
      let name = env.Dsim.Network.payload in
      resolved :=
        (name, Schemes.Process_env.resolve (Schemes.Per_process.env world)
           ~as_:child name)
        :: !resolved);
  let params =
    List.filter_map
      (fun n -> if N.length n <= 4 then Some n else None)
      (Schemes.Per_process.namespace_probes world parent ~max_depth:4)
  in
  List.iter (fun p -> Dsim.Actor.send parent_actor ~to_:child_actor p) params;
  ignore (Dsim.Engine.run engine);
  check i "all params arrived" (List.length params) (List.length !resolved);
  List.iter
    (fun (name, child_meaning) ->
      let parent_meaning =
        Schemes.Process_env.resolve (Schemes.Per_process.env world) ~as_:parent
          name
      in
      if not (E.is_defined child_meaning && E.equal parent_meaning child_meaning)
      then
        Alcotest.failf "parameter %s incoherent across remote exec"
          (N.to_string name))
    !resolved

(* -- 3. reconfiguration storm ------------------------------------------ *)

let test_reconfiguration_storm () =
  let reg = Netaddr.Registry.create () in
  let rng = Dsim.Rng.create 13L in
  let nets =
    List.init 3 (fun k ->
        Netaddr.Registry.add_network reg ~label:(Printf.sprintf "n%d" k))
  in
  List.iter
    (fun net ->
      for m = 0 to 2 do
        let mach =
          Netaddr.Registry.add_machine reg ~net ~label:(Printf.sprintf "m%d" m)
        in
        for p = 0 to 2 do
          ignore
            (Netaddr.Registry.add_process reg ~mach
               ~label:(Printf.sprintf "p%d" p))
        done
      done)
    nets;
  let procs = Netaddr.Registry.all_processes reg in
  (* same-machine connections, to check the paper's immunity claim under
     a long mixed storm (renumber AND move) *)
  let machine_pairs =
    List.concat_map
      (fun holder ->
        List.filter_map
          (fun target ->
            if
              holder <> target
              && Netaddr.Registry.machine_of_proc reg holder
                 = Netaddr.Registry.machine_of_proc reg target
            then
              Some
                ( holder,
                  target,
                  Netaddr.Registry.pid_of reg ~target ~relative_to:holder )
            else None)
          procs)
      procs
  in
  let ops =
    Workload.Reconfig.random_ops reg ~rng ~n:100
      ~kinds:[ `Renumber_machine; `Renumber_network; `Move_machine ] ()
  in
  check i "storm applied" 100 (List.length ops);
  (* invariant: current placements still resolve *)
  List.iter
    (fun holder ->
      List.iter
        (fun target ->
          match
            Netaddr.Registry.resolve reg ~from:holder
              (Netaddr.Registry.pid_of reg ~target ~relative_to:holder)
          with
          | Some p when p = target -> ()
          | _ -> Alcotest.fail "fresh pid does not resolve after storm")
        procs)
    procs;
  (* machine-local pids survive even moves of their machine: the whole
     machine moved, so (0,0,l) still denotes the same neighbour *)
  List.iter
    (fun (holder, target, pid) ->
      match Netaddr.Registry.resolve reg ~from:holder pid with
      | Some p when p = target -> ()
      | _ -> Alcotest.fail "machine-local pid broke during the storm")
    machine_pairs

(* -- 4. document workflow across machines ------------------------------ *)

let test_document_workflow () =
  let st = S.create () in
  let fs1 = Vfs.Fs.create ~root_label:"m1:/" st in
  let fs2 = Vfs.Fs.create ~root_label:"m2:/" st in
  Vfs.Fs.populate fs1 [ "home/alice/" ];
  Vfs.Fs.populate fs2 [ "import/" ];
  let rng = Dsim.Rng.create 21L in
  let project =
    Workload.Docgen.build fs1 ~at:"home/alice/tool" ~rng
      ~spec:Workload.Docgen.default_spec
  in
  (* ship the project to the other machine: relocate across file systems
     (same store — entities keep their identity) *)
  let alice = Vfs.Fs.lookup fs1 "home/alice" in
  let import = Vfs.Fs.lookup fs2 "import" in
  Vfs.Subtree.relocate fs1 ~src:alice ~name:"tool" ~dst:import ();
  check b "gone from m1" true
    (E.is_undefined (Vfs.Fs.lookup fs1 "home/alice/tool"));
  check b "arrived on m2" true (E.equal project (Vfs.Fs.lookup fs2 "/import/tool"));
  (* all embedded refs still resolve, to the same entities *)
  List.iter
    (fun (dir, file) ->
      List.iter
        (fun r ->
          if E.is_undefined (Schemes.Embedded.resolve_at st ~dir r) then
            Alcotest.failf "ref %s broke after cross-machine move"
              (N.to_string r))
        (Schemes.Embedded.refs_of st file))
    (Workload.Docgen.sources fs2 project)

(* -- 4b. name-server crash and recovery --------------------------------- *)

let test_server_crash_recovery () =
  let st = S.create () in
  let world = Schemes.Unix_scheme.build st in
  let server_proc = Schemes.Unix_scheme.spawn world in
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create ~engine ~rng:(Dsim.Rng.create 17L) () in
  let sn = Dsim.Network.add_node net ~label:"server" in
  let cn = Dsim.Network.add_node net ~label:"client" in
  let server =
    Dsim.Rpc.create net ~node:sn ~port:1
      ~handler:(fun name ->
        Some
          (E.to_string
             (Schemes.Unix_scheme.resolve world ~as_:server_proc
                (N.to_string name))))
      ()
  in
  let client = Dsim.Rpc.create net ~node:cn ~port:1 () in
  let outcomes = ref [] in
  let query () =
    Dsim.Rpc.call client ~to_:(Dsim.Rpc.address server) ~timeout:5.0
      (N.of_string "/bin/ls") ~on_reply:(fun r -> outcomes := r :: !outcomes)
  in
  (* healthy *)
  query ();
  ignore (Dsim.Engine.run engine);
  (* crash: queries time out *)
  Dsim.Network.set_node_up net sn false;
  query ();
  query ();
  ignore (Dsim.Engine.run engine);
  (* recovery: the same endpoint serves again *)
  Dsim.Network.set_node_up net sn true;
  query ();
  ignore (Dsim.Engine.run engine);
  match List.rev !outcomes with
  | [ Ok first; Error `Timeout; Error `Timeout; Ok last ] ->
      check b "same answer before and after the crash" true (first = last)
  | l -> Alcotest.failf "unexpected outcome sequence (%d)" (List.length l)

(* -- 5. determinism ----------------------------------------------------- *)

let test_determinism () =
  let r1 = Harness.Exp_pqid.measure ~seed:99L () in
  let r2 = Harness.Exp_pqid.measure ~seed:99L () in
  check b "identical results for identical seeds" true (r1 = r2);
  let r3 = Harness.Exp_pqid.measure ~seed:100L () in
  check b "different seed, different trajectory" true
    (r1.Harness.Exp_pqid.survival <> r3.Harness.Exp_pqid.survival
    || r1.Harness.Exp_pqid.transit <> r3.Harness.Exp_pqid.transit)

(* -- 6. store round-trips preserve experiment results ------------------- *)

let test_codec_preserves_coherence () =
  let st = S.create () in
  let world = Schemes.Shared_graph.build ~clients:[ "c1"; "c2" ] st in
  let p1 = Schemes.Shared_graph.spawn_on world ~client:"c1" in
  let p2 = Schemes.Shared_graph.spawn_on world ~client:"c2" in
  let probes = Schemes.Shared_graph.shared_probes world ~max_depth:4 in
  let rule = Schemes.Shared_graph.rule world in
  let occs = [ O.generated p1; O.generated p2 ] in
  let before = Coh.measure st rule occs probes in
  let st' = Naming.Codec.of_string (Naming.Codec.to_string st) in
  (* the rule's assignment references context objects by identity; ids are
     preserved by the codec, so the SAME rule works against the copy *)
  let after = Coh.measure st' rule occs probes in
  check b "coherence report identical" true (before = after)

let suite =
  [
    Alcotest.test_case "exchange over a lossy network" `Quick
      test_lossy_exchange;
    Alcotest.test_case "remote-exec parameter pipeline" `Quick
      test_remote_exec_pipeline;
    Alcotest.test_case "reconfiguration storm" `Slow
      test_reconfiguration_storm;
    Alcotest.test_case "document workflow across machines" `Quick
      test_document_workflow;
    Alcotest.test_case "server crash and recovery" `Quick
      test_server_crash_recovery;
    Alcotest.test_case "determinism under seeds" `Slow test_determinism;
    Alcotest.test_case "codec preserves coherence results" `Quick
      test_codec_preserves_coherence;
  ]
