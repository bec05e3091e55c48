(* Tests for the workload generators. *)

module S = Naming.Store
module E = Naming.Entity
module N = Naming.Name
module Ng = Workload.Namegen
module Ex = Workload.Exchange
module Rc = Workload.Reconfig
module Dg = Workload.Docgen
module R = Netaddr.Registry

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int

let world () =
  let st = S.create () in
  let t = Schemes.Unix_scheme.build st in
  let ctx =
    match S.context_of st (Schemes.Unix_scheme.root t) with
    | Some c -> c
    | None -> assert false
  in
  (st, t, ctx)

let test_namegen_from_graph () =
  let st, _, ctx = world () in
  let rng = Dsim.Rng.create 1L in
  let names = Ng.from_graph st ctx ~rng ~n:10 ~max_depth:4 in
  check i "ten names" 10 (List.length names);
  check b "all resolvable" true
    (List.for_all
       (fun n -> E.is_defined (Naming.Resolver.resolve st ctx n))
       names)

let test_namegen_noise () =
  let st, _, ctx = world () in
  let rng = Dsim.Rng.create 2L in
  let names = Ng.noise ~rng ~n:20 ~max_depth:3 in
  check i "twenty" 20 (List.length names);
  check b "none resolvable" true
    (List.for_all
       (fun n -> E.is_undefined (Naming.Resolver.resolve st ctx n))
       names)

let test_namegen_mixed () =
  let st, _, ctx = world () in
  let rng = Dsim.Rng.create 3L in
  let names = Ng.mixed st ctx ~rng ~n:20 ~max_depth:3 ~valid_fraction:0.5 in
  check i "twenty" 20 (List.length names);
  let valid =
    List.length
      (List.filter
         (fun n -> E.is_defined (Naming.Resolver.resolve st ctx n))
         names)
  in
  check i "half valid" 10 valid;
  (match Ng.mixed st ctx ~rng ~n:5 ~max_depth:3 ~valid_fraction:1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad fraction accepted")

(* from_graph's cost contract: drawing [n] of [m] names consumes
   exactly [min n m] rng draws (one partial Fisher–Yates step each),
   however large the graph. Pinned by running a mirror rng forward the
   same number of next_int64 steps and comparing states. *)
let test_namegen_draw_count () =
  let st, _, ctx = world () in
  let m = List.length (Naming.Graph.all_names st ctx ~max_depth:4 ()) in
  check b "population is non-trivial" true (m > 10);
  let pinned seed ~n ~expect_names ~expect_draws =
    let rng = Dsim.Rng.create seed in
    let mirror = Dsim.Rng.copy rng in
    let names = Ng.from_graph st ctx ~rng ~n ~max_depth:4 in
    check i "names drawn" expect_names (List.length names);
    for _ = 1 to expect_draws do
      ignore (Dsim.Rng.next_int64 mirror)
    done;
    check b "rng advanced by exactly that many draws" true
      (Dsim.Rng.next_int64 rng = Dsim.Rng.next_int64 mirror)
  in
  pinned 5L ~n:7 ~expect_names:7 ~expect_draws:7;
  pinned 6L ~n:(m + 50) ~expect_names:m ~expect_draws:m;
  pinned 7L ~n:0 ~expect_names:0 ~expect_draws:0

let test_namegen_from_graph_distinct () =
  let st, _, ctx = world () in
  let rng = Dsim.Rng.create 8L in
  let names = Ng.from_graph st ctx ~rng ~n:12 ~max_depth:4 in
  check i "no duplicates (without replacement)" (List.length names)
    (List.length (List.sort_uniq N.compare names))

let test_namegen_descend () =
  let st, _, ctx = world () in
  let rng = Dsim.Rng.create 9L in
  for _ = 1 to 50 do
    match Ng.descend st ctx ~rng ~max_depth:4 with
    | None -> Alcotest.fail "descent in a populated world found nothing"
    | Some n ->
        check b "descent stays within max_depth" true (N.length n <= 4);
        check b "descended name resolves" true
          (E.is_defined (Naming.Resolver.resolve st ctx n))
  done;
  check b "max_depth 0 yields nothing" true
    (Ng.descend st ctx ~rng ~max_depth:0 = None);
  let empty_ctx = Naming.Context.empty in
  check b "no bindings yields nothing" true
    (Ng.descend st empty_ctx ~rng ~max_depth:4 = None)

let test_alphabet () =
  check (Alcotest.list Alcotest.string) "alphabet" [ "f0"; "f1" ]
    (Ng.atoms_of_alphabet ~prefix:"f" 2)

let test_exchange_random () =
  let st, t, _ = world () in
  let a1 = Schemes.Unix_scheme.spawn t in
  let a2 = Schemes.Unix_scheme.spawn t in
  let rng = Dsim.Rng.create 4L in
  let probes = [ N.of_string "/bin/ls" ] in
  let events = Ex.random_events ~rng ~activities:[ a1; a2 ] ~probes ~n:50 in
  check i "fifty" 50 (List.length events);
  check b "sender <> receiver" true
    (List.for_all (fun e -> not (E.equal e.Ex.sender e.Ex.receiver)) events);
  (match Ex.random_events ~rng ~activities:[ a1 ] ~probes ~n:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single activity accepted");
  ignore st

let test_exchange_all_pairs () =
  let _, t, _ = world () in
  let acts = List.init 3 (fun _ -> Schemes.Unix_scheme.spawn t) in
  let probes = [ N.of_string "/bin/ls"; N.of_string "/etc" ] in
  let events = Ex.all_pairs ~activities:acts ~probes in
  (* 3*2 ordered pairs x 2 probes *)
  check i "count" 12 (List.length events)

let test_exchange_occurrences () =
  let _, t, _ = world () in
  let a1 = Schemes.Unix_scheme.spawn t in
  let a2 = Schemes.Unix_scheme.spawn t in
  let ev = { Ex.sender = a1; receiver = a2; name = N.of_string "/x" } in
  match Ex.occurrences ev with
  | [ Naming.Occurrence.Generated { by }; Naming.Occurrence.Received { sender; receiver } ] ->
      check b "by sender" true (E.equal by a1);
      check b "received pair" true (E.equal sender a1 && E.equal receiver a2)
  | _ -> Alcotest.fail "wrong occurrence shape"

let test_exchange_coherent_fraction () =
  let st, t, _ = world () in
  let a1 = Schemes.Unix_scheme.spawn t in
  let a2 = Schemes.Unix_scheme.spawn t in
  let events =
    Ex.all_pairs ~activities:[ a1; a2 ]
      ~probes:[ N.of_string "/bin/ls"; N.of_string "/ghost" ]
  in
  (* shared root: coherent for the defined probe, vacuous for the ghost *)
  check (Alcotest.float 1e-9) "fraction" 1.0
    (Ex.coherent_fraction st (Schemes.Unix_scheme.rule t) events)

let test_exchange_over_network () =
  let st, t, _ = world () in
  let a1 = Schemes.Unix_scheme.spawn t in
  let a2 = Schemes.Unix_scheme.spawn t in
  let engine = Dsim.Engine.create () in
  let net = Dsim.Network.create ~engine ~rng:(Dsim.Rng.create 5L) () in
  let node = Dsim.Network.add_node net ~label:"m" in
  let actors = Hashtbl.create 4 in
  let actor_of e =
    match Hashtbl.find_opt actors e with
    | Some a -> a
    | None ->
        let a =
          Dsim.Actor.create net ~node ~port:(Hashtbl.length actors + 1)
        in
        Hashtbl.replace actors e a;
        a
  in
  let events =
    [
      { Ex.sender = a1; receiver = a2; name = N.of_string "/bin/ls" };
      { Ex.sender = a2; receiver = a1; name = N.of_string "/etc" };
    ]
  in
  let delivered = Ex.run_over_network ~engine ~actor_of events in
  check i "both delivered" 2 (List.length delivered);
  check b "names survive transit" true
    (List.exists (fun (_, _, n) -> N.to_string n = "/bin/ls") delivered);
  ignore st

let registry3 () =
  let r = R.create () in
  let n1 = R.add_network r ~label:"n1" in
  let n2 = R.add_network r ~label:"n2" in
  let m1 = R.add_machine r ~net:n1 ~label:"m1" in
  let m2 = R.add_machine r ~net:n2 ~label:"m2" in
  ignore (R.add_process r ~mach:m1 ~label:"p1");
  ignore (R.add_process r ~mach:m2 ~label:"p2");
  r

let test_reconfig_random_ops () =
  let r = registry3 () in
  let rng = Dsim.Rng.create 6L in
  let ops = Rc.random_ops r ~rng ~n:20 () in
  check i "twenty ops applied" 20 (List.length ops);
  (* registry invariants hold: placements are still unique & resolvable *)
  let procs = R.all_processes r in
  check b "pids still resolve" true
    (List.for_all
       (fun holder ->
         List.for_all
           (fun target ->
             R.resolve r ~from:holder (R.pid_of r ~target ~relative_to:holder)
             = Some target)
           procs)
       procs)

let test_reconfig_moves () =
  let r = registry3 () in
  let rng = Dsim.Rng.create 7L in
  let ops = Rc.random_ops r ~rng ~n:10 ~kinds:[ `Move_machine ] () in
  check i "ten" 10 (List.length ops);
  (match Rc.random_ops r ~rng ~n:1 ~kinds:[] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty kinds accepted")

let test_docgen_structure () =
  let st = S.create () in
  let fs = Vfs.Fs.create st in
  let rng = Dsim.Rng.create 8L in
  let spec =
    { Dg.n_components = 3; n_sources = 4; refs_per_source = 2; nested = true }
  in
  let project = Dg.build fs ~at:"p" ~rng ~spec in
  let sources = Dg.sources fs project in
  (* 4 outer + inner sub sources *)
  check b "outer + nested sources" true (List.length sources > 4);
  check i "refs counted" (List.length sources * 2) (Dg.expected_refs fs project);
  (* every source lives in a dir that contains it *)
  check b "dirs contain their files" true
    (List.for_all
       (fun (dir, file) ->
         List.exists (fun (_, e) -> E.equal e file) (Vfs.Fs.readdir fs dir))
       sources)

let test_docgen_validation () =
  let st = S.create () in
  let fs = Vfs.Fs.create st in
  let rng = Dsim.Rng.create 9L in
  match
    Dg.build fs ~at:"p" ~rng
      ~spec:{ Dg.n_components = 0; n_sources = 1; refs_per_source = 1; nested = false }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero components accepted"

let suite =
  [
    Alcotest.test_case "namegen from_graph" `Quick test_namegen_from_graph;
    Alcotest.test_case "namegen draw count" `Quick test_namegen_draw_count;
    Alcotest.test_case "namegen without replacement" `Quick
      test_namegen_from_graph_distinct;
    Alcotest.test_case "namegen descend" `Quick test_namegen_descend;
    Alcotest.test_case "namegen noise" `Quick test_namegen_noise;
    Alcotest.test_case "namegen mixed" `Quick test_namegen_mixed;
    Alcotest.test_case "alphabet" `Quick test_alphabet;
    Alcotest.test_case "exchange random" `Quick test_exchange_random;
    Alcotest.test_case "exchange all pairs" `Quick test_exchange_all_pairs;
    Alcotest.test_case "exchange occurrences" `Quick test_exchange_occurrences;
    Alcotest.test_case "exchange coherent fraction" `Quick
      test_exchange_coherent_fraction;
    Alcotest.test_case "exchange over network" `Quick
      test_exchange_over_network;
    Alcotest.test_case "reconfig random ops" `Quick test_reconfig_random_ops;
    Alcotest.test_case "reconfig moves" `Quick test_reconfig_moves;
    Alcotest.test_case "docgen structure" `Quick test_docgen_structure;
    Alcotest.test_case "docgen validation" `Quick test_docgen_validation;
  ]
