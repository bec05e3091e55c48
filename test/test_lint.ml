(* Tests for Naming.Lint — world well-formedness. *)

module S = Naming.Store
module E = Naming.Entity
module N = Naming.Name
module L = Naming.Lint

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int

let test_clean_fs () =
  let st = S.create () in
  let fs = Vfs.Fs.create st in
  Vfs.Fs.populate fs Schemes.Unix_scheme.default_tree;
  check b "clean" true (L.is_clean st);
  check b "checked some" true ((L.check st).L.checked > 0)

let test_schemes_lint_clean () =
  (* every built-in scheme produces a well-formed world *)
  let clean name build =
    let st = S.create () in
    build st;
    if not (L.is_clean st) then
      Alcotest.failf "%s world is not lint-clean: %s" name
        (Format.asprintf "%a" (L.pp_report st) (L.check st))
  in
  clean "unix" (fun st ->
      let t = Schemes.Unix_scheme.build st in
      ignore (Schemes.Unix_scheme.spawn t));
  clean "newcastle" (fun st ->
      let t = Schemes.Newcastle.build ~machines:[ "u1"; "u2" ] st in
      ignore (Schemes.Newcastle.spawn_on t ~machine:"u1"));
  clean "newcastle joined" (fun st ->
      let ta = Schemes.Newcastle.build ~machines:[ "u1" ] st in
      let tb = Schemes.Newcastle.build ~machines:[ "v1" ] st in
      ignore (Schemes.Newcastle.join st [ ("a", ta); ("b", tb) ]));
  clean "andrew" (fun st ->
      let t = Schemes.Shared_graph.build ~clients:[ "c1"; "c2" ] st in
      ignore (Schemes.Shared_graph.spawn_on t ~client:"c1"));
  clean "dce" (fun st ->
      let t = Schemes.Dce.build ~cells:[ ("cA", [ "m1" ]) ] st in
      ignore (Schemes.Dce.spawn_on t ~machine:"m1"));
  clean "per-process" (fun st ->
      let t =
        Schemes.Per_process.build ~subsystems:[ ("p1", [ "x" ]) ] st
      in
      let parent = Schemes.Per_process.spawn ~attach:[ ("fs", "p1") ] t in
      ignore (Schemes.Per_process.remote_exec t ~parent ~subsystem:"p1"));
  clean "federation" (fun st ->
      let t =
        Schemes.Federation.build
          ~orgs:
            [ ("o1", Schemes.Federation.default_org_tree ~users:[ "u" ]
                 ~services:[ "s" ]) ]
          st
      in
      ignore (Schemes.Federation.spawn_in t ~org:"o1"))

let test_detects_broken_self () =
  let st = S.create () in
  let fs = Vfs.Fs.create st in
  let d = Vfs.Fs.mkdir_path fs "/d" in
  S.bind st ~dir:d N.self_atom (Vfs.Fs.root fs);
  match (L.check st).L.violations with
  | [ L.Self_not_self bad ] -> check b "right dir" true (E.equal bad d)
  | v -> Alcotest.failf "expected one Self_not_self, got %d" (List.length v)

let test_detects_bad_parent () =
  let st = S.create () in
  let fs = Vfs.Fs.create st in
  let d = Vfs.Fs.mkdir_path fs "/d" in
  let f = Vfs.Fs.add_file fs "/f" ~content:"" in
  S.bind st ~dir:d N.parent_atom f;
  check b "parent-not-directory reported" true
    (List.exists
       (function L.Parent_not_directory _ -> true | _ -> false)
       (L.check st).L.violations)

let test_detects_unlinked_parent () =
  let st = S.create () in
  let fs = Vfs.Fs.create st in
  let d = Vfs.Fs.mkdir_path fs "/a/d" in
  let a = Vfs.Fs.lookup fs "/a" in
  (* detach d but keep its '..' pointing at a *)
  Vfs.Fs.unlink fs ~dir:a "d";
  ignore d;
  check b "unlinked parent reported" true
    (List.exists
       (function L.Parent_not_linked _ -> true | _ -> false)
       (L.check st).L.violations)

let test_detects_foreign_binding () =
  let st = S.create () in
  let d = S.create_context_object st in
  S.bind st ~dir:d (N.atom "ghost") (E.Object 999);
  match (L.check st).L.violations with
  | [ L.Binding_to_foreign (dir, _, e) ] ->
      check b "dir" true (E.equal dir d);
      check i "entity id" 999 (E.id e)
  | v -> Alcotest.failf "expected one violation, got %d" (List.length v)

let test_pp_report () =
  let st = S.create () in
  let fs = Vfs.Fs.create st in
  ignore (Vfs.Fs.mkdir_path fs "/d");
  let text = Format.asprintf "%a" (L.pp_report st) (L.check st) in
  check b "mentions clean" true
    (String.length text > 0
    &&
    let rec contains i =
      i + 5 <= String.length text
      && (String.equal (String.sub text i 5) "clean" || contains (i + 1))
    in
    contains 0)

(* The broken analyzer fixture's violations, rendered line by line. *)
let test_pp_report_broken () =
  let st = (Broken_world.build ()).Analysis.Subject.store in
  check Alcotest.string "report"
    "lint: 14 context objects, 5 violation(s):\n\
    \  etc(o1): binding ghost -> unknown entity o9999\n\
    \  selfbad(o5): '.' does not denote itself\n\
    \  pbad(o6): '..' denotes non-directory passwd(o2)\n\
    \  det(o7): parent /(o0) does not link back\n\
    \  lost(o9): parent oldp(o8) does not link back"
    (Format.asprintf "%a" (L.pp_report st) (L.check st))

(* property: docgen projects, with all subtree operations applied, stay
   lint-clean *)
let prop_operations_preserve_cleanliness =
  QCheck.Test.make ~name:"subtree ops preserve lint-cleanliness" ~count:25
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
      L.is_clean st)

let suite =
  [
    Alcotest.test_case "clean fs" `Quick test_clean_fs;
    Alcotest.test_case "all schemes lint clean" `Quick
      test_schemes_lint_clean;
    Alcotest.test_case "detects broken self" `Quick test_detects_broken_self;
    Alcotest.test_case "detects bad parent" `Quick test_detects_bad_parent;
    Alcotest.test_case "detects unlinked parent" `Quick
      test_detects_unlinked_parent;
    Alcotest.test_case "detects foreign binding" `Quick
      test_detects_foreign_binding;
    Alcotest.test_case "pp report" `Quick test_pp_report;
    Alcotest.test_case "pp report of the broken world" `Quick
      test_pp_report_broken;
    QCheck_alcotest.to_alcotest prop_operations_preserve_cleanliness;
  ]
