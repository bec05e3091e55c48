(* Tests for Harness.Diff — namespace diffing. *)

module S = Naming.Store
module E = Naming.Entity
module N = Naming.Name
module C = Naming.Context
module R = Naming.Rule
module D = Harness.Diff

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int
let f = Alcotest.float 1e-9

(* a: {x->o1, shared->s, mine->m}; b: {x->o2, shared->s, yours->y} *)
let fixture () =
  let st = S.create () in
  let o1 = S.create_object st and o2 = S.create_object st in
  let s = S.create_object st in
  let m = S.create_object st and y = S.create_object st in
  let a = S.create_activity st and bb = S.create_activity st in
  let asg = R.Assignment.create () in
  let mk bindings =
    S.create_context_object ~ctx:(C.of_bindings bindings) st
  in
  R.Assignment.set asg a
    (mk [ (N.atom "x", o1); (N.atom "shared", s); (N.atom "mine", m) ]);
  R.Assignment.set asg bb
    (mk [ (N.atom "x", o2); (N.atom "shared", s); (N.atom "yours", y) ]);
  (st, R.of_activity asg, a, bb)

let probes =
  List.map N.of_string [ "shared"; "x"; "mine"; "yours"; "ghost" ]

let test_buckets () =
  let st, rule, a, bb = fixture () in
  let d = D.diff st rule ~a ~b:bb ~probes in
  check i "agree" 1 (List.length d.D.agree);
  check i "disagree" 1 (List.length d.D.disagree);
  check i "only a" 1 (List.length d.D.only_a);
  check i "only b" 1 (List.length d.D.only_b);
  check i "neither" 1 (List.length d.D.neither);
  (match d.D.disagree with
  | [ (n, ea, eb) ] ->
      check Alcotest.string "the clash is x" "x" (N.to_string n);
      check b "sides differ" false (E.equal ea eb)
  | _ -> Alcotest.fail "wrong disagree bucket");
  check f "fraction" 0.25 (D.coherent_fraction d)

let test_identical_namespaces () =
  let st, rule, a, _ = fixture () in
  let d = D.diff st rule ~a ~b:a ~probes in
  check i "no disagreement" 0
    (List.length d.D.disagree + List.length d.D.only_a + List.length d.D.only_b);
  check f "full agreement" 1.0 (D.coherent_fraction d)

let test_all_vacuous () =
  let st, rule, a, bb = fixture () in
  let d = D.diff st rule ~a ~b:bb ~probes:[ N.of_string "nothing" ] in
  check f "vacuous fraction is 1" 1.0 (D.coherent_fraction d);
  check i "neither" 1 (List.length d.D.neither)

let test_pp_smoke () =
  let st, rule, a, bb = fixture () in
  let d = D.diff st rule ~a ~b:bb ~probes in
  let text = Format.asprintf "%a" (D.pp st) d in
  check b "mentions counts" true (String.length text > 20)

let test_agrees_with_coherence () =
  (* diff's agree bucket = names Coherence calls coherent over {a,b} *)
  let st, rule, a, bb = fixture () in
  let d = D.diff st rule ~a ~b:bb ~probes in
  let occs = [ Naming.Occurrence.generated a; Naming.Occurrence.generated bb ] in
  let coherent =
    List.filter_map
      (fun (n, v) ->
        match v with
        | Naming.Coherence.Coherent _ | Naming.Coherence.Weakly_coherent _ ->
            Some (N.to_string n)
        | Naming.Coherence.Incoherent _ | Naming.Coherence.Vacuous -> None)
      (Naming.Coherence.classify st rule occs probes)
  in
  check (Alcotest.list Alcotest.string) "same set" coherent
    (List.map (fun (n, _) -> N.to_string n) d.D.agree)

let suite =
  [
    Alcotest.test_case "buckets" `Quick test_buckets;
    Alcotest.test_case "identical namespaces" `Quick test_identical_namespaces;
    Alcotest.test_case "all vacuous" `Quick test_all_vacuous;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
    Alcotest.test_case "agrees with Coherence" `Quick
      test_agrees_with_coherence;
  ]
