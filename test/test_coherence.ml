(* Tests for Naming.Coherence — the paper's central definition. *)

module S = Naming.Store
module E = Naming.Entity
module N = Naming.Name
module C = Naming.Context
module R = Naming.Rule
module O = Naming.Occurrence
module Coh = Naming.Coherence

let check = Alcotest.check
let b = Alcotest.bool
let f = Alcotest.float 1e-9

(* Three activities: a1 and a2 share a binding for "shared"; everyone has
   a private binding for "local"; "only1" is bound only for a1. *)
let fixture () =
  let st = S.create () in
  let shared = S.create_object ~label:"shared" st in
  let l1 = S.create_object st and l2 = S.create_object st and l3 = S.create_object st in
  let only = S.create_object st in
  let a1 = S.create_activity st and a2 = S.create_activity st and a3 = S.create_activity st in
  let asg = R.Assignment.create () in
  let mk bindings = S.create_context_object ~ctx:(C.of_bindings bindings) st in
  R.Assignment.set asg a1
    (mk [ (N.atom "shared", shared); (N.atom "local", l1); (N.atom "only1", only) ]);
  R.Assignment.set asg a2
    (mk [ (N.atom "shared", shared); (N.atom "local", l2) ]);
  R.Assignment.set asg a3
    (mk [ (N.atom "shared", shared); (N.atom "local", l3) ]);
  (st, R.of_activity asg, [ a1; a2; a3 ], (l1, l2, l3))

let occs activities = List.map O.generated activities

let test_coherent () =
  let st, rule, acts, _ = fixture () in
  match Coh.check st rule (occs acts) (N.of_string "shared") with
  | Coh.Coherent e -> check b "defined" true (E.is_defined e)
  | v -> Alcotest.failf "expected coherent, got %a" Coh.pp_verdict v

let test_incoherent_different () =
  let st, rule, acts, _ = fixture () in
  match Coh.check st rule (occs acts) (N.of_string "local") with
  | Coh.Incoherent ((_, e1), (_, e2)) ->
      check b "witnesses differ" false (E.equal e1 e2)
  | v -> Alcotest.failf "expected incoherent, got %a" Coh.pp_verdict v

let test_incoherent_partial () =
  let st, rule, acts, _ = fixture () in
  (* only1 is defined for a1 and bottom for the others: incoherent, with a
     defined witness and an undefined one. *)
  match Coh.check st rule (occs acts) (N.of_string "only1") with
  | Coh.Incoherent ((_, d), (_, u)) ->
      check b "defined witness" true (E.is_defined d);
      check b "undefined witness" true (E.is_undefined u)
  | v -> Alcotest.failf "expected incoherent, got %a" Coh.pp_verdict v

let test_vacuous () =
  let st, rule, acts, _ = fixture () in
  match Coh.check st rule (occs acts) (N.of_string "ghost") with
  | Coh.Vacuous -> ()
  | v -> Alcotest.failf "expected vacuous, got %a" Coh.pp_verdict v

let test_weak () =
  let st, rule, acts, (l1, l2, l3) = fixture () in
  let repl = Naming.Replication.create () in
  Naming.Replication.declare repl [ l1; l2; l3 ];
  let equiv = Naming.Replication.same_replica repl in
  (match Coh.check ~equiv st rule (occs acts) (N.of_string "local") with
  | Coh.Weakly_coherent es ->
      check Alcotest.int "one per occurrence" 3 (List.length es)
  | v -> Alcotest.failf "expected weakly coherent, got %a" Coh.pp_verdict v);
  check b "is_coherent counts weak" true
    (Coh.is_coherent ~equiv st rule (occs acts) (N.of_string "local"))

let test_empty_occurrences () =
  let st, rule, _, _ = fixture () in
  match Coh.check st rule [] (N.of_string "shared") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty occurrence list accepted"

let test_single_occurrence_coherent () =
  let st, rule, acts, _ = fixture () in
  match Coh.check st rule [ O.generated (List.hd acts) ] (N.of_string "local") with
  | Coh.Coherent _ -> ()
  | v -> Alcotest.failf "single occurrence should be coherent, got %a"
           Coh.pp_verdict v

let test_measure_and_degrees () =
  let st, rule, acts, _ = fixture () in
  let probes =
    [ N.of_string "shared"; N.of_string "local"; N.of_string "only1";
      N.of_string "ghost" ]
  in
  let r = Coh.measure st rule (occs acts) probes in
  check Alcotest.int "probes" 4 r.Coh.probes;
  check Alcotest.int "coherent" 1 r.Coh.coherent;
  check Alcotest.int "incoherent" 2 r.Coh.incoherent;
  check Alcotest.int "vacuous" 1 r.Coh.vacuous;
  check Alcotest.int "weak" 0 r.Coh.weakly_coherent;
  check f "degree = 1/3" (1.0 /. 3.0) (Coh.degree r);
  check f "strict same here" (1.0 /. 3.0) (Coh.strict_degree r)

let test_degree_all_vacuous () =
  let st, rule, acts, _ = fixture () in
  let r = Coh.measure st rule (occs acts) [ N.of_string "ghost" ] in
  check f "vacuous-only degree is 1" 1.0 (Coh.degree r)

let test_classify_and_filters () =
  let st, rule, acts, _ = fixture () in
  let probes = [ N.of_string "shared"; N.of_string "local" ] in
  let detail = Coh.classify st rule (occs acts) probes in
  check Alcotest.int "detail length" 2 (List.length detail);
  let names keep =
    List.filter_map
      (fun (n, v) -> if keep v then Some (N.to_string n) else None)
      detail
  in
  check (Alcotest.list Alcotest.string) "coherent names" [ "shared" ]
    (names (function
      | Coh.Coherent _ | Coh.Weakly_coherent _ -> true
      | Coh.Incoherent _ | Coh.Vacuous -> false));
  check (Alcotest.list Alcotest.string) "incoherent names" [ "local" ]
    (names (function
      | Coh.Incoherent _ -> true
      | Coh.Coherent _ | Coh.Weakly_coherent _ | Coh.Vacuous -> false))

(* property: the verdict class is invariant under permutation of the
   occurrence list. *)
let prop_order_invariant =
  QCheck.Test.make ~name:"verdict invariant under occurrence order" ~count:100
    (QCheck.pair (QCheck.list_of_size (QCheck.Gen.return 3) QCheck.small_nat)
       QCheck.small_nat)
    (fun (_perm_seed, name_pick) ->
      let st, rule, acts, _ = fixture () in
      let name =
        List.nth
          [ N.of_string "shared"; N.of_string "local"; N.of_string "only1";
            N.of_string "ghost" ]
          (name_pick mod 4)
      in
      let class_of occs =
        match Coh.check st rule occs name with
        | Coh.Coherent _ -> 0
        | Coh.Weakly_coherent _ -> 1
        | Coh.Incoherent _ -> 2
        | Coh.Vacuous -> 3
      in
      let fwd = class_of (occs acts) in
      let bwd = class_of (occs (List.rev acts)) in
      fwd = bwd)

(* property: enlarging the occurrence set never turns an incoherent or
   vacuous name coherent (coherence is an intersection). *)
let prop_monotone_in_activities =
  QCheck.Test.make ~name:"coherence anti-monotone in the activity set"
    ~count:100
    (QCheck.pair QCheck.small_nat QCheck.small_nat)
    (fun (_seed, name_pick) ->
      let st, rule, acts, _ = fixture () in
      let name =
        List.nth
          [ N.of_string "shared"; N.of_string "local"; N.of_string "only1";
            N.of_string "ghost" ]
          (name_pick mod 4)
      in
      let rank occs =
        match Coh.check st rule occs name with
        | Coh.Coherent _ | Coh.Weakly_coherent _ -> 2
        | Coh.Vacuous -> 1
        | Coh.Incoherent _ -> 0
      in
      match acts with
      | a1 :: a2 :: a3 :: _ ->
          let small = rank (occs [ a1; a2 ]) in
          let large = rank (occs [ a1; a2; a3 ]) in
          (* a coherent pair can become incoherent with more activities,
             never the reverse (2 >= large unless small < 2) *)
          small >= large || small = 1 (* vacuous can become incoherent *)
      | _ -> false)

let probe_names = [ "shared"; "local"; "only1"; "missing" ]

let test_measure_seq_parity () =
  let st, rule, acts, _ = fixture () in
  let os = occs acts in
  (* more than one chunk, so the streaming fold actually iterates *)
  let names =
    List.init 5000 (fun i -> N.of_string (List.nth probe_names (i mod 4)))
  in
  let r_list = Coh.measure st rule os names in
  let r_seq = Coh.measure_seq st rule os (List.to_seq names) in
  check b "streamed report equals list report" true (r_list = r_seq);
  let r_jobs = Coh.measure_seq ~jobs:2 st rule os (List.to_seq names) in
  check b "streamed report equals at jobs 2" true (r_list = r_jobs);
  check Alcotest.int "fold visits every probe" 5000 r_seq.Coh.probes

(* Units bring their own occurrence sets: "only1" is coherent for a1
   alone but not across a1 and a2. Over one shared set, the units tally
   is [measure]'s report. *)
let test_measure_units () =
  let st, rule, acts, _ = fixture () in
  let a1, a2 =
    match acts with a1 :: a2 :: _ -> (a1, a2) | _ -> assert false
  in
  let units =
    [
      (occs [ a1 ], N.of_string "only1");
      (occs [ a1; a2 ], N.of_string "only1");
      (occs acts, N.of_string "shared");
      (occs [ a2 ], N.of_string "ghost");
    ]
  in
  let r = Coh.measure_units st rule units in
  check Alcotest.int "coherent" 2 r.Coh.coherent;
  check Alcotest.int "incoherent" 1 r.Coh.incoherent;
  check Alcotest.int "vacuous" 1 r.Coh.vacuous;
  check b "same report at jobs 2" true
    (r = Coh.measure_units ~jobs:2 st rule units);
  let names = List.map N.of_string probe_names in
  check b "one shared set = measure" true
    (Coh.measure st rule (occs acts) names
    = Coh.measure_units st rule (List.map (fun n -> (occs acts, n)) names))

(* Uniform draws from a fixed name list: the estimator's target is then
   the exact degree over that population. *)
let uniform names =
  let arr = Array.of_list (List.map N.of_string names) in
  {
    Coh.split = Dsim.Rng.split;
    draw = (fun rng -> arr.(Dsim.Rng.int rng (Array.length arr)));
  }

let test_estimate_fixture () =
  let st, rule, acts, _ = fixture () in
  let est =
    Coh.estimate ~rng:(Dsim.Rng.create 42L) st rule (occs acts)
      (uniform probe_names)
  in
  (* over the population: shared coherent; local and only1 incoherent;
     missing vacuous — true degree 1/3 *)
  check b "interval brackets the point estimate" true
    (est.Coh.ci_low <= est.Coh.degree && est.Coh.degree <= est.Coh.ci_high);
  check b "interval contains the true degree" true
    (est.Coh.ci_low <= 1.0 /. 3.0 && 1.0 /. 3.0 <= est.Coh.ci_high);
  check b "strict degree matches (no equivalence supplied)" true
    (est.Coh.degree = est.Coh.strict_degree);
  check b "drew some samples" true (est.Coh.samples > 0)

let test_estimate_parity () =
  let st, rule, acts, _ = fixture () in
  let run ?engine ?jobs () =
    Coh.estimate ?engine ?jobs ~rng:(Dsim.Rng.create 7L) st rule (occs acts)
      (uniform probe_names)
  in
  let base = run () in
  check b "jobs 4 parity" true (base = run ~jobs:4 ());
  check b "interpreted engine parity" true
    (base = run ~engine:(Naming.Engine.create `Interpreted st) ());
  check b "compiled engine parity" true
    (base = run ~engine:(Naming.Engine.create `Compiled st) ())

let test_estimate_all_vacuous () =
  let st, rule, acts, _ = fixture () in
  let est =
    Coh.estimate ~max_samples:600 ~rng:(Dsim.Rng.create 1L) st rule
      (occs acts) (uniform [ "missing" ])
  in
  check f "vacuous degree convention" 1.0 est.Coh.degree;
  check f "lower bound stays 0" 0.0 est.Coh.ci_low;
  check f "upper bound stays 1" 1.0 est.Coh.ci_high;
  check Alcotest.int "runs to max_samples" 600 est.Coh.samples

let test_estimate_invalid () =
  let st, rule, acts, _ = fixture () in
  let expect label run =
    match run () with
    | exception Invalid_argument _ -> ()
    | (_ : Coh.estimate) -> Alcotest.fail label
  in
  let est ?confidence ?epsilon ?max_samples () =
    Coh.estimate ?confidence ?epsilon ?max_samples
      ~rng:(Dsim.Rng.create 1L) st rule (occs acts) (uniform probe_names)
  in
  expect "confidence 1.0 accepted" (fun () -> est ~confidence:1.0 ());
  expect "confidence 0.0 accepted" (fun () -> est ~confidence:0.0 ());
  expect "epsilon 0 accepted" (fun () -> est ~epsilon:0.0 ());
  expect "max_samples 0 accepted" (fun () -> est ~max_samples:0 ())

let suite =
  [
    Alcotest.test_case "coherent" `Quick test_coherent;
    Alcotest.test_case "measure_units: per-unit occurrence sets" `Quick
      test_measure_units;
    Alcotest.test_case "incoherent (different entities)" `Quick
      test_incoherent_different;
    Alcotest.test_case "incoherent (defined vs bottom)" `Quick
      test_incoherent_partial;
    Alcotest.test_case "vacuous" `Quick test_vacuous;
    Alcotest.test_case "weak coherence" `Quick test_weak;
    Alcotest.test_case "empty occurrences rejected" `Quick
      test_empty_occurrences;
    Alcotest.test_case "single occurrence" `Quick
      test_single_occurrence_coherent;
    Alcotest.test_case "measure and degrees" `Quick test_measure_and_degrees;
    Alcotest.test_case "all-vacuous degree" `Quick test_degree_all_vacuous;
    Alcotest.test_case "classify and filters" `Quick test_classify_and_filters;
    Alcotest.test_case "measure_seq parity" `Quick test_measure_seq_parity;
    Alcotest.test_case "estimate on the fixture" `Quick test_estimate_fixture;
    Alcotest.test_case "estimate parity across jobs and engines" `Quick
      test_estimate_parity;
    Alcotest.test_case "estimate all vacuous" `Quick test_estimate_all_vacuous;
    Alcotest.test_case "estimate invalid arguments" `Quick
      test_estimate_invalid;
    QCheck_alcotest.to_alcotest prop_order_invariant;
    QCheck_alcotest.to_alcotest prop_monotone_in_activities;
  ]
