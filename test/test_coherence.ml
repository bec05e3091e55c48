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

(* --- the tally against the verdicts it counts ----------------------- *)

(* The verdict by its definition, over Rule.resolve: every occurrence
   resolves the name on its own, and the witnesses are picked from the
   list of results. An oracle independent of Coherence's scratch arrays. *)
let reference_check ~equiv st rule occs name =
  let results = List.map (fun o -> (o, R.resolve rule st o name)) occs in
  match List.filter (fun (_, e) -> E.is_defined e) results with
  | [] -> Coh.Vacuous
  | (o, d) :: _ -> (
      match List.find_opt (fun (_, e) -> E.is_undefined e) results with
      | Some w -> Coh.Incoherent ((o, d), w)
      | None -> (
          match List.find_opt (fun (_, e) -> not (equiv d e)) results with
          | Some w -> Coh.Incoherent ((o, d), w)
          | None ->
              if List.for_all (fun (_, e) -> E.equal d e) results then
                Coh.Coherent d
              else Coh.Weakly_coherent (List.map snd results)))

let count_verdict (r : Coh.report) v =
  let r = { r with probes = r.probes + 1 } in
  match v with
  | Coh.Coherent _ -> { r with coherent = r.coherent + 1 }
  | Coh.Weakly_coherent _ -> { r with weakly_coherent = r.weakly_coherent + 1 }
  | Coh.Incoherent _ -> { r with incoherent = r.incoherent + 1 }
  | Coh.Vacuous -> { r with vacuous = r.vacuous + 1 }

let empty_report =
  { Coh.probes = 0; coherent = 0; weakly_coherent = 0; incoherent = 0;
    vacuous = 0 }

let probe_pool =
  List.map N.of_string
    [ "a"; "b"; "c"; "d"; "dir/x"; "dir/y"; "dir/z"; "dir"; "e"; "a/x" ]

(* A random store: four leaves, one shared directory, and 1-4 activities
   whose contexts bind a-d and dir at random. The rule selects no
   context for a random subset of the activities, and two leaves are
   equivalent when their ids agree mod 2 — so every verdict kind,
   weak coherence included, occurs. *)
let random_subject seed =
  let rng = Dsim.Rng.create (Int64.of_int (seed + 1)) in
  let st = S.create () in
  let leaves = Array.init 4 (fun _ -> S.create_object st) in
  let leaf () = leaves.(Dsim.Rng.int rng 4) in
  let dir =
    S.create_context_object
      ~ctx:(C.of_bindings [ (N.atom "x", leaf ()); (N.atom "y", leaf ()) ])
      st
  in
  let asg = R.Assignment.create () in
  let acts = List.init (1 + Dsim.Rng.int rng 4) (fun _ -> S.create_activity st) in
  let silent = List.filter (fun _ -> Dsim.Rng.bool rng 0.15) acts in
  List.iter
    (fun a ->
      let bindings =
        List.filter_map
          (fun (atom, target) ->
            if Dsim.Rng.bool rng 0.85 then Some (N.atom atom, target) else None)
          [ ("a", leaf ()); ("b", leaf ()); ("c", leaf ()); ("d", leaf ());
            ("dir", dir) ]
      in
      R.Assignment.set asg a
        (S.create_context_object ~ctx:(C.of_bindings bindings) st))
    acts;
  let base = R.of_activity asg in
  let rule =
    R.make ~label:"partial" (fun st o ->
        if List.exists (E.equal (O.subject o)) silent then None
        else R.select base st o)
  in
  let equiv a b = E.id a mod 2 = E.id b mod 2 in
  let probes =
    List.init (Dsim.Rng.int rng 40) (fun _ -> Dsim.Rng.pick rng probe_pool)
  in
  (st, rule, equiv, occs acts, probes)

let prop_tally_counts_verdicts =
  QCheck.Test.make ~name:"tally = fold of count_verdict over the verdicts"
    ~count:60 QCheck.small_nat (fun seed ->
      let st, rule, equiv, os, probes = random_subject seed in
      let verdicts = List.map (reference_check ~equiv st rule os) probes in
      let expected = List.fold_left count_verdict empty_report verdicts in
      let units = List.map (fun n -> (os, n)) probes in
      (* every recorded draw, so the estimate can be checked the same way *)
      let drawn = ref [] in
      let sampler =
        {
          Coh.split = Dsim.Rng.split;
          draw =
            (fun rng ->
              let n = Dsim.Rng.pick rng probe_pool in
              drawn := n :: !drawn;
              n);
        }
      in
      List.for_all
        (fun (jobs, kind) ->
          let engine = Naming.Engine.create kind st in
          drawn := [];
          let est =
            Coh.estimate ~equiv ~engine ~jobs ~epsilon:0.05 ~max_samples:700
              ~rng:(Dsim.Rng.create (Int64.of_int seed)) st rule os sampler
          in
          let sampled =
            List.fold_left count_verdict empty_report
              (List.rev_map (reference_check ~equiv st rule os) !drawn)
          in
          Coh.measure ~equiv ~engine ~jobs st rule os probes = expected
          && Coh.measure_seq ~equiv ~engine ~jobs st rule os
               (List.to_seq probes)
             = expected
          && Coh.measure_units ~equiv ~engine ~jobs st rule units = expected
          && Coh.classify ~equiv ~engine ~jobs st rule os probes
             = List.combine probes verdicts
          && est.Coh.samples = sampled.probes
          && est.Coh.degree = Coh.degree sampled
          && est.Coh.strict_degree = Coh.strict_degree sampled)
        [ (1, `Compiled); (2, `Compiled); (4, `Compiled); (1, `Interpreted);
          (2, `Interpreted); (4, `Interpreted) ])

(* The rule is a function of store and occurrence, so a batch selects
   each occurrence's context once: a counting rule sees one select per
   occurrence per measure batch, per measure_seq chunk (4096 probes) and
   per estimate batch (256 draws). *)
let test_select_once_per_batch () =
  let st, base, acts, _ = fixture () in
  let selects = Atomic.make 0 in
  let rule =
    R.make ~label:"counting" (fun st o ->
        Atomic.incr selects;
        R.select base st o)
  in
  let os = occs acts in
  let names n = List.init n (fun i -> N.of_string (List.nth probe_names (i mod 4))) in
  let count label expected run =
    Atomic.set selects 0;
    ignore (run ());
    check Alcotest.int label expected (Atomic.get selects)
  in
  List.iter
    (fun jobs ->
      count "measure: one select per occurrence" 3 (fun () ->
          Coh.measure ~jobs st rule os (names 1000));
      count "classify: one select per occurrence" 3 (fun () ->
          Coh.classify ~jobs st rule os (names 1000));
      count "measure_seq: per occurrence per chunk" 6 (fun () ->
          Coh.measure_seq ~jobs st rule os (List.to_seq (names 5000)));
      count "estimate: per occurrence per batch" 9 (fun () ->
          Coh.estimate ~jobs ~max_samples:600 ~rng:(Dsim.Rng.create 1L) st
            rule os (uniform [ "missing" ])))
    [ 1; 4 ]

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
    Alcotest.test_case "a batch selects each context once" `Quick
      test_select_once_per_batch;
    QCheck_alcotest.to_alcotest prop_tally_counts_verdicts;
    QCheck_alcotest.to_alcotest prop_order_invariant;
    QCheck_alcotest.to_alcotest prop_monotone_in_activities;
  ]
