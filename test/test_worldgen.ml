(* Tests for Harness.Worldgen — the seeded generative world builder,
   its probe samplers, and the estimate-vs-exact agreement the b18
   bench series relies on. *)

module S = Naming.Store
module E = Naming.Entity
module N = Naming.Name
module Cd = Naming.Codec
module Coh = Naming.Coherence
module W = Harness.Worldgen

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int

let all_templates = [ `Unixlike; `Perprocess; `Federated ]

let occurrences (w : Harness.Sample.world) =
  List.map Naming.Occurrence.generated w.Harness.Sample.activities

let dump t ~size ~seed =
  Cd.to_string (W.build t ~size ~seed).Harness.Sample.store

let test_deterministic () =
  List.iter
    (fun t ->
      let name = W.template_name t in
      let d1 = dump t ~size:400 ~seed:11L in
      check b (name ^ ": same seed rebuilds identical bytes") true
        (String.equal d1 (dump t ~size:400 ~seed:11L));
      check b (name ^ ": different seed differs") false
        (String.equal d1 (dump t ~size:400 ~seed:12L)))
    all_templates

let test_exact_size () =
  List.iter
    (fun t ->
      let w = W.build t ~size:800 ~seed:3L in
      check i
        (W.template_name t ^ ": store holds exactly size entities")
        800
        (S.cardinal w.Harness.Sample.store))
    all_templates;
  match W.build `Unixlike ~size:32 ~seed:1L with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undersized build accepted"

let test_template_names () =
  List.iter
    (fun t ->
      match W.template_of_string (W.template_name t) with
      | Some t' -> check b "name roundtrips" true (t = t')
      | None -> Alcotest.failf "template %s unparseable" (W.template_name t))
    all_templates;
  check i "templates list is exhaustive" (List.length all_templates)
    (List.length W.templates);
  check b "unknown template rejected" true
    (W.template_of_string "solaris" = None)

(* A built world survives serialisation: dump it, decode the bare
   store, rebuild a measurable world from labels alone, and the exact
   coherence report is unchanged. *)
let test_of_store_roundtrip () =
  List.iter
    (fun t ->
      let name = W.template_name t in
      let w = W.build t ~size:300 ~seed:5L in
      match W.of_store (Cd.of_string (Cd.to_string w.Harness.Sample.store)) with
      | None -> Alcotest.failf "%s: of_store failed on own dump" name
      | Some w' ->
          check i
            (name ^ ": activities survive")
            (List.length w.Harness.Sample.activities)
            (List.length w'.Harness.Sample.activities);
          let report (wx : Harness.Sample.world) =
            Coh.measure_seq wx.Harness.Sample.store wx.Harness.Sample.rule
              (occurrences wx) (W.probes_seq wx)
          in
          check (Alcotest.float 1e-12)
            (name ^ ": degree survives the dump")
            (Coh.degree (report w))
            (Coh.degree (report w')))
    all_templates

let test_of_store_rejects () =
  check b "empty store" true (W.of_store (S.create ()) = None);
  let st = S.create () in
  ignore (S.create_activity ~label:"p0" st);
  check b "activity without its .ctx object" true (W.of_store st = None)

let test_sampler_draws () =
  let w = W.build `Unixlike ~size:500 ~seed:21L in
  let st = w.Harness.Sample.store and ctx = w.Harness.Sample.ctx in
  let rng = Dsim.Rng.create 42L in
  let valid = W.sampler ~valid_fraction:1.0 w in
  for _ = 1 to 100 do
    let n = valid.Coh.draw rng in
    check b "valid draw resolves" true
      (E.is_defined (Naming.Resolver.resolve st ctx n))
  done;
  let noise = W.sampler ~valid_fraction:0.0 w in
  for _ = 1 to 100 do
    let n = noise.Coh.draw rng in
    check b "noise draw does not resolve" true
      (E.is_undefined (Naming.Resolver.resolve st ctx n))
  done

let test_uniform_sampler () =
  (match W.uniform_sampler [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty population accepted");
  let probes = [| N.of_string "/a"; N.of_string "/b"; N.of_string "/c" |] in
  let s = W.uniform_sampler probes in
  let rng = Dsim.Rng.create 1L in
  for _ = 1 to 30 do
    let n = s.Coh.draw rng in
    check b "draw comes from the population" true
      (Array.exists (fun p -> N.compare p n = 0) probes)
  done

let test_probes_seq_resolvable () =
  let w = W.build `Perprocess ~size:300 ~seed:6L in
  let st = w.Harness.Sample.store and ctx = w.Harness.Sample.ctx in
  let n_probes =
    Seq.fold_left
      (fun acc n ->
        check b "enumerated probe resolves" true
          (E.is_defined (Naming.Resolver.resolve st ctx n));
        acc + 1)
      0 (W.probes_seq w)
  in
  check b "population is non-trivial" true (n_probes > 100)

(* The eager breadth-first enumeration probes_seq was built on before it
   streamed: every level appended to one result list. *)
let eager_probes ?(max_depth = 8) (w : Harness.Sample.world) =
  let st = w.Harness.Sample.store in
  let skip a = N.atom_equal a N.self_atom || N.atom_equal a N.parent_atom in
  let root_ctx =
    match S.context_of st (Naming.Context.lookup w.Harness.Sample.ctx N.root_atom) with
    | Some c -> c
    | None -> Naming.Context.empty
  in
  let results = ref [] in
  let frontier = ref [] in
  Naming.Context.iter
    (fun a e ->
      if (not (skip a)) && E.is_defined e then
        frontier := (N.singleton a, e) :: !frontier)
    root_ctx;
  let frontier = ref (List.rev !frontier) in
  let depth = ref 1 in
  while !frontier <> [] && !depth <= max_depth do
    results := List.rev_append !frontier !results;
    let next = ref [] in
    if !depth < max_depth then
      List.iter
        (fun (n, e) ->
          List.iter
            (fun (a, dst) ->
              if (not (skip a)) && E.is_defined dst then
                next := (N.snoc n a, dst) :: !next)
            (Naming.Graph.out_edges st e))
        !frontier;
    frontier := List.rev !next;
    incr depth
  done;
  N.singleton N.root_atom
  :: List.map (fun (n, _) -> N.prepend_root n) (List.rev !results)

let prop_probes_seq_order =
  QCheck.Test.make ~name:"probes_seq streams the eager enumeration" ~count:30
    QCheck.(triple (int_bound 2) (int_range 64 600) (int_bound 1000))
    (fun (t, size, seed) ->
      let w =
        W.build (List.nth all_templates t) ~size ~seed:(Int64.of_int seed)
      in
      let max_depth = 1 + (seed mod 8) in
      List.equal N.equal (List.of_seq (W.probes_seq w)) (eager_probes w)
      && List.equal N.equal
           (List.of_seq (W.probes_seq ~max_depth w))
           (eager_probes ~max_depth w))

(* The b18 acceptance property: on small worlds where the exact sweep
   is cheap, the estimator run with a uniform sampler over the
   enumerated probe population must (a) produce a confidence interval
   bracketing the exact degree, and (b) return byte-identical records
   across jobs 1 vs 4 and across all three engines. *)
let prop_estimate_brackets_exact =
  QCheck.Test.make
    ~name:"estimate CI brackets exact degree; parity across engines x jobs"
    ~count:6
    QCheck.(pair small_nat (int_bound 2))
    (fun (seed, ti) ->
      let t = List.nth all_templates ti in
      let w = W.build t ~size:300 ~seed:(Int64.of_int (seed + 1)) in
      let st = w.Harness.Sample.store in
      let rule = w.Harness.Sample.rule in
      let occs = occurrences w in
      let probes = Array.of_seq (W.probes_seq w) in
      let exact =
        Coh.degree (Coh.measure_seq st rule occs (Array.to_seq probes))
      in
      let sampler = W.uniform_sampler probes in
      let est ?engine ~jobs () =
        Coh.estimate ?engine ~jobs ~confidence:0.999 ~epsilon:0.02
          ~max_samples:60_000
          ~rng:(Dsim.Rng.create (Int64.of_int (seed + 100)))
          st rule occs sampler
      in
      let base = est ~jobs:1 () in
      let others =
        est ~jobs:4 ()
        :: List.concat_map
             (fun kind ->
               let engine = Naming.Engine.create kind st in
               [ est ~engine ~jobs:1 (); est ~engine ~jobs:4 () ])
             [ `Interpreted; `Compiled ]
      in
      List.iter
        (fun e ->
          if e <> base then
            QCheck.Test.fail_reportf
              "%s seed=%d: estimate differs across engine/jobs"
              (W.template_name t) seed)
        others;
      if not (base.Coh.ci_low -. 1e-9 <= exact && exact <= base.Coh.ci_high +. 1e-9)
      then
        QCheck.Test.fail_reportf
          "%s seed=%d: exact %.4f outside ci=[%.4f, %.4f] (n=%d)"
          (W.template_name t) seed exact base.Coh.ci_low base.Coh.ci_high
          base.Coh.samples;
      true)

(* Coverage of the 95% interval, measured: over 1000 rng seeds the
   interval may miss the exact degree about 50 times. Allow nominal
   plus three standard deviations (50 + 3·sqrt(1000·0.05·0.95) ≈ 70);
   a stopping rule that narrowed the interval too eagerly, or an
   interval formula that undercovers, shows up as more misses. *)
let prop_estimate_coverage =
  QCheck.Test.make ~name:"95% estimate interval misses at most nominal + 3σ"
    ~count:1 QCheck.unit (fun () ->
      let w = W.build `Unixlike ~size:3_000 ~seed:1L in
      let st = w.Harness.Sample.store in
      let rule = w.Harness.Sample.rule in
      let occs = occurrences w in
      let probes = Array.of_seq (W.probes_seq w) in
      let exact =
        Coh.degree (Coh.measure_seq st rule occs (Array.to_seq probes))
      in
      let sampler = W.uniform_sampler probes in
      let misses = ref 0 in
      for seed = 0 to 999 do
        let e =
          Coh.estimate ~epsilon:0.02 ~rng:(Dsim.Rng.create (Int64.of_int seed))
            st rule occs sampler
        in
        if exact < e.Coh.ci_low || exact > e.Coh.ci_high then incr misses
      done;
      if !misses > 70 then
        QCheck.Test.fail_reportf "%d of 1000 intervals miss the exact %.4f"
          !misses exact;
      true)

let suite =
  [
    Alcotest.test_case "deterministic rebuild" `Quick test_deterministic;
    Alcotest.test_case "exact size" `Quick test_exact_size;
    Alcotest.test_case "template names" `Quick test_template_names;
    Alcotest.test_case "of_store roundtrip via codec" `Quick
      test_of_store_roundtrip;
    Alcotest.test_case "of_store rejects bad stores" `Quick
      test_of_store_rejects;
    Alcotest.test_case "sampler draws" `Quick test_sampler_draws;
    Alcotest.test_case "uniform sampler" `Quick test_uniform_sampler;
    Alcotest.test_case "probes_seq resolves" `Quick
      test_probes_seq_resolvable;
    QCheck_alcotest.to_alcotest prop_estimate_brackets_exact;
    QCheck_alcotest.to_alcotest prop_estimate_coverage;
    QCheck_alcotest.to_alcotest prop_probes_seq_order;
  ]
