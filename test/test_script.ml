(* Tests for Workload.Script — scripted scenarios and fuzzing. *)

module S = Naming.Store
module E = Naming.Entity
module N = Naming.Name
module Sc = Workload.Script

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int
let entity = Alcotest.testable E.pp E.equal

let test_deterministic_scenario () =
  let st = S.create () in
  let w = Sc.new_world st in
  Sc.run w
    [
      Sc.Mkdir "/a/b";
      Sc.Add_file ("/a/b/f", "v1");
      Sc.Spawn "p0";
      Sc.Fork 0;
      Sc.Chdir (1, "/a");
      Sc.Bind (0, "mnt", "/a/b");
    ];
  (match Sc.processes w with
  | [ p0; p1 ] ->
      check entity "p1 relative via cwd"
        (Vfs.Fs.lookup (Sc.fs w) "/a/b/f")
        (Schemes.Process_env.resolve_str (Sc.env w) ~as_:p1 "b/f");
      check entity "p0 via binding"
        (Vfs.Fs.lookup (Sc.fs w) "/a/b/f")
        (Schemes.Process_env.resolve_str (Sc.env w) ~as_:p0 "mnt/f")
  | l -> Alcotest.failf "expected 2 processes, got %d" (List.length l));
  check i "two processes" 2 (List.length (Sc.processes w))

let test_invalid_ops_skipped () =
  let st = S.create () in
  let w = Sc.new_world st in
  (* none of these can apply; none may raise *)
  Sc.run w
    [
      Sc.Fork 7;
      Sc.Chdir (0, "/nope");
      Sc.Chroot (3, "/");
      Sc.Unbind (0, "x");
      Sc.Unlink "/nothing/here";
      Sc.Write ("/missing", "x");
    ];
  check i "still no processes" 0 (List.length (Sc.processes w))

let test_unlink_op () =
  let st = S.create () in
  let w = Sc.new_world st in
  Sc.run w [ Sc.Add_file ("/a/f", "x"); Sc.Unlink "/a/f" ];
  check entity "gone" E.undefined (Vfs.Fs.lookup (Sc.fs w) "/a/f");
  Sc.run w [ Sc.Add_file ("/g", "y"); Sc.Unlink "/g" ];
  check entity "top-level unlink works" E.undefined
    (Vfs.Fs.lookup (Sc.fs w) "/g")

let test_replay_equivalence () =
  (* the ops returned by random_ops, replayed on a fresh world, produce an
     observably identical world *)
  let rng = Dsim.Rng.create 5L in
  let st1 = S.create () in
  let w1 = Sc.new_world st1 in
  let ops = Sc.random_ops w1 ~rng ~n:60 in
  let st2 = S.create () in
  let w2 = Sc.new_world st2 in
  Sc.run w2 ops;
  check i "same process count"
    (List.length (Sc.processes w1))
    (List.length (Sc.processes w2));
  (* same resolutions for a fixed probe set, process by process *)
  let probes = [ "/a/b/c"; "/d/e"; "/f"; "mnt/c"; "vice"; "." ] in
  List.iter2
    (fun p1 p2 ->
      List.iter
        (fun probe ->
          let r1 = Schemes.Process_env.resolve_str (Sc.env w1) ~as_:p1 probe in
          let r2 = Schemes.Process_env.resolve_str (Sc.env w2) ~as_:p2 probe in
          (* entity ids may differ between stores; compare definedness and
             label *)
          if E.is_defined r1 <> E.is_defined r2 then
            Alcotest.failf "replay diverged on %s" probe;
          if
            E.is_defined r1
            && S.label st1 r1 <> S.label st2 r2
          then Alcotest.failf "replay diverged on %s (labels)" probe)
        probes)
    (Sc.processes w1) (Sc.processes w2)

let test_pp_op () =
  let text = Format.asprintf "%a" Sc.pp_op (Sc.Bind (1, "mnt", "/a")) in
  check Alcotest.string "pp" "bind 1 mnt /a" text

(* fuzz: random scripts preserve the global invariants *)
let prop_fuzz_invariants =
  QCheck.Test.make ~name:"random scripts keep worlds well-formed" ~count:50
    QCheck.small_nat (fun seed ->
      let rng = Dsim.Rng.create (Int64.of_int (seed + 1)) in
      let st = S.create () in
      let w = Sc.new_world st in
      ignore (Sc.random_ops w ~rng ~n:80);
      (* 1. lint-clean *)
      Naming.Lint.is_clean st
      &&
      (* 2. resolution is total for every process over a probe set *)
      let probes =
        List.map N.of_string [ "/a/b/c"; "/d/e"; "mnt/c"; "."; ".." ]
      in
      List.for_all
        (fun p ->
          List.for_all
            (fun n ->
              match Schemes.Process_env.resolve (Sc.env w) ~as_:p n with
              | (_ : E.t) -> true)
            probes)
        (Sc.processes w)
      &&
      (* 3. coherence degree stays in [0,1] *)
      match Sc.processes w with
      | p1 :: p2 :: _ ->
          let occs =
            [ Naming.Occurrence.generated p1; Naming.Occurrence.generated p2 ]
          in
          let report =
            Naming.Coherence.measure st
              (Schemes.Process_env.rule (Sc.env w))
              occs probes
          in
          let d = Naming.Coherence.degree report in
          d >= 0.0 && d <= 1.0
      | _ -> true)

(* The O(1) process index agrees with the spawn-order list, including
   out-of-range indices, and counts the spawns and valid forks. *)
let prop_process_index =
  QCheck.Test.make ~name:"process index = spawn-order list" ~count:50
    QCheck.small_nat (fun seed ->
      let rng = Dsim.Rng.create (Int64.of_int (seed + 1)) in
      let w = Sc.new_world (S.create ()) in
      let ops = Sc.random_ops w ~rng ~n:200 in
      let spawned =
        List.fold_left
          (fun n -> function
            | Sc.Spawn _ -> n + 1
            | Sc.Fork i when i >= 0 && i < n -> n + 1
            | _ -> n)
          0 ops
      in
      let ps = Sc.processes w in
      let n = Sc.process_count w in
      n = spawned && n = List.length ps
      && List.for_all
           (fun i ->
             (* List.nth_opt raises on a negative index *)
             let expected = if i < 0 then None else List.nth_opt ps i in
             Option.equal E.equal (Sc.proc w i) expected)
           (List.init (n + 3) (fun k -> k - 1)))

let suite =
  [
    Alcotest.test_case "deterministic scenario" `Quick
      test_deterministic_scenario;
    Alcotest.test_case "invalid ops skipped" `Quick test_invalid_ops_skipped;
    Alcotest.test_case "unlink op" `Quick test_unlink_op;
    Alcotest.test_case "replay equivalence" `Quick test_replay_equivalence;
    Alcotest.test_case "pp_op" `Quick test_pp_op;
    QCheck_alcotest.to_alcotest prop_fuzz_invariants;
    QCheck_alcotest.to_alcotest prop_process_index;
  ]
