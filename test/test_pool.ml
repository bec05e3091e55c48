(* Tests for Naming.Pool — the domain pool behind every [?jobs] — and
   for the parallel paths of the batch entry points: jobs > 1 must be
   structurally equal to the sequential sweep, failures must propagate
   deterministically, and the store write barrier must catch mutation
   attempted inside a parallel section. *)

module S = Naming.Store
module E = Naming.Entity
module N = Naming.Name
module P = Naming.Pool
module Sc = Workload.Script

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int

(* One real 4-way pool for the [map_local] unit tests; [map] and the
   qcheck properties go through [?jobs] and the shared pool like
   production callers do. *)
let pool = lazy (P.create ~jobs:4)

let test_map_order () =
  let xs = List.init 100 (fun i -> i) in
  check (Alcotest.list i) "in task order, like List.map"
    (List.map (fun x -> (x * x) + 1) xs)
    (P.map ~jobs:4 (fun x -> (x * x) + 1) xs);
  check (Alcotest.list i) "empty" [] (P.map ~jobs:4 (fun x -> x) []);
  check (Alcotest.list i) "singleton" [ 7 ] (P.map ~jobs:4 (fun x -> x) [ 7 ])

let test_map_local_states () =
  let p = Lazy.force pool in
  let xs = List.init 64 (fun i -> i) in
  let results, locals =
    P.map_local p
      ~local:(fun () -> ref 0)
      (fun w x ->
        incr w;
        x)
      xs
  in
  check (Alcotest.list i) "results in order" xs results;
  check b "at most jobs participants"
    true
    (List.length locals >= 1 && List.length locals <= P.jobs p);
  (* every task ran exactly once, under exactly one participant *)
  check i "local counters partition the batch" (List.length xs)
    (List.fold_left (fun acc w -> acc + !w) 0 locals)

let test_exception_propagates () =
  let xs = List.init 100 (fun i -> i) in
  (match
     P.map ~jobs:4
       (fun x ->
         if x = 70 || x = 10 || x = 30 then failwith (string_of_int x) else x)
       xs
   with
  | _ -> Alcotest.fail "expected a Failure"
  | exception Failure msg ->
      check Alcotest.string "lowest-indexed failure wins" "10" msg);
  (* the pool survives a failed batch *)
  check (Alcotest.list i) "pool usable after failure" [ 2; 4; 6 ]
    (P.map ~jobs:4 (fun x -> 2 * x) [ 1; 2; 3 ])

let test_jobs_cap () =
  let p = Lazy.force pool in
  let _, locals =
    P.map_local ~jobs:2 p
      ~local:(fun () -> ())
      (fun () x -> x)
      (List.init 32 (fun i -> i))
  in
  check b "?jobs caps participants below pool size" true
    (List.length locals <= 2)

(* The shared pool grows to the widest batch asked of it; a later,
   narrower batch must still run on at most the participants it asked
   for. Each task spins briefly, so idle helpers have time to join; the
   participants are counted as the distinct domains that ran tasks and,
   through [Engine.map_sharded], as the distinct shards [map_local]
   handed out. *)
let test_jobs_cap_shared () =
  let spin () =
    let k = ref 0 in
    while Sys.opaque_identity !k < 100_000 do
      incr k
    done
  in
  let xs = List.init 128 Fun.id in
  let distinct eq l =
    List.length
      (List.fold_left (fun acc x -> if List.exists (eq x) acc then acc else x :: acc) [] l)
  in
  let domains jobs =
    distinct ( = ) (P.map ~jobs (fun _ -> spin (); Domain.self ()) xs)
  in
  ignore (domains 4);
  check b "map: at most 2 domains after a jobs-4 batch" true (domains 2 <= 2);
  let stores = List.map (fun _ -> S.create ()) xs in
  check b "map_frozen: at most 2 domains" true
    (distinct ( = )
       (P.map_frozen ~jobs:2 ~store:Fun.id (fun _ -> spin (); Domain.self ()) stores)
    <= 2);
  let engine = Naming.Engine.create `Compiled (S.create ()) in
  check b "map_sharded: at most 2 shards" true
    (distinct ( == )
       (Naming.Engine.map_sharded ~jobs:2 engine (fun shard _ -> spin (); shard) xs)
    <= 2)

let test_write_barrier () =
  let st = S.create () in
  let dir = S.create_context_object st in
  let out =
    S.read_only st (fun () ->
        check b "flag visible" true (S.is_read_only st);
        (match S.create_activity st with
        | _ -> Alcotest.fail "create_activity inside read_only must raise"
        | exception Invalid_argument _ -> ());
        (match S.bind st ~dir (N.atom "x") (E.undefined) with
        | _ -> Alcotest.fail "bind inside read_only must raise"
        | exception Invalid_argument _ -> ());
        17)
  in
  check i "read_only returns the body's value" 17 out;
  check b "flag cleared" false (S.is_read_only st);
  (* nesting: the store stays frozen until the outermost section ends *)
  S.read_only st (fun () ->
      S.read_only st (fun () -> ());
      check b "still frozen after inner exit" true (S.is_read_only st));
  (* mutable again afterwards, even after an exception unwound a section *)
  (try S.read_only st (fun () -> failwith "escape") with Failure _ -> ());
  ignore (S.create_activity st)

(* The three fan-out entry points at jobs 1 are [List.map] on the
   caller: every item runs on the calling domain with its store
   writable, and [Engine.map_sharded] passes the engine it was given —
   here the store's own compiled engine — not a snapshot. At jobs 2
   over several items the store is frozen inside [f]. Each task reports
   what it saw; the checks run on the caller. *)
module Eng = Naming.Engine

let seen st = (Domain.self (), S.is_read_only st)

let own_engine st = function
  | Eng.Compiled c -> c == Naming.Compiled.of_store st
  | Eng.Interpreted _ -> false

let test_sequential_contract () =
  let caller = Domain.self () in
  let st = S.create () and xs = List.init 8 Fun.id in
  let on_caller_writable label seen =
    List.iter
      (fun (d, frozen) ->
        check b (label ^ ": on the calling domain") true (d = caller);
        check b (label ^ ": store writable") false frozen)
      seen
  in
  on_caller_writable "map" (P.map ~jobs:1 (fun _ -> seen st) xs);
  let stores = List.map (fun _ -> S.create ()) xs in
  on_caller_writable "map_frozen"
    (P.map_frozen ~jobs:1 ~store:Fun.id seen stores);
  let engine = Eng.create `Compiled st in
  let got =
    Eng.map_sharded ~jobs:1 engine (fun shard _ -> (seen st, shard)) xs
  in
  on_caller_writable "map_sharded" (List.map fst got);
  List.iter
    (fun (_, shard) ->
      check b "map_sharded: the store's own engine" true
        (shard == engine && own_engine st shard))
    got

let test_parallel_frozen () =
  let st = S.create () and xs = List.init 8 Fun.id in
  let frozen label seen =
    List.iter (fun (_, f) -> check b (label ^ ": store frozen") true f) seen
  in
  let stores = List.map (fun _ -> S.create ()) xs in
  frozen "map_frozen" (P.map_frozen ~jobs:2 ~store:Fun.id seen stores);
  let engine = Eng.create `Compiled st in
  let got =
    Eng.map_sharded ~jobs:2 engine (fun shard _ -> (seen st, shard)) xs
  in
  frozen "map_sharded" (List.map fst got);
  List.iter
    (fun (_, shard) ->
      check b "map_sharded: a snapshot, not the owner" false (shard == engine))
    got;
  check b "writable again afterwards" false (S.is_read_only st)

(* A random world for the parity properties: [n] random script ops over
   a fresh store, measured over a fixed probe set. *)
let random_world seed =
  let rng = Dsim.Rng.create (Int64.of_int (seed + 1)) in
  let st = S.create () in
  let w = Sc.new_world st in
  ignore (Sc.random_ops w ~rng ~n:60);
  let probes =
    List.map N.of_string
      [ "/a/b/c"; "/a/b"; "/d/e"; "/d"; "mnt/c"; "."; ".."; "/a/b/c/d" ]
  in
  (st, w, probes)

let prop_measure_parity =
  QCheck.Test.make ~name:"Coherence.measure: jobs 2/4 = sequential" ~count:25
    QCheck.small_nat (fun seed ->
      let st, w, probes = random_world seed in
      let rule = Schemes.Process_env.rule (Sc.env w) in
      let occs = List.map Naming.Occurrence.generated (Sc.processes w) in
      if occs = [] then true
      else
        let seq = Naming.Coherence.measure st rule occs probes in
        List.for_all
          (fun jobs ->
            Naming.Coherence.measure ~jobs st rule occs probes = seq
            && Naming.Coherence.classify ~jobs st rule occs probes
               = Naming.Coherence.classify st rule occs probes)
          [ 2; 4 ])

let prop_exchange_parity =
  QCheck.Test.make ~name:"Exchange.coherent_fraction: jobs 2/4 = sequential"
    ~count:25 QCheck.small_nat (fun seed ->
      let st, w, probes = random_world seed in
      let rule = Schemes.Process_env.rule (Sc.env w) in
      match Sc.processes w with
      | _ :: _ :: _ as activities ->
          let events = Workload.Exchange.all_pairs ~activities ~probes in
          let seq = Workload.Exchange.coherent_fraction st rule events in
          List.for_all
            (fun jobs ->
              Workload.Exchange.coherent_fraction ~jobs st rule events = seq)
            [ 2; 4 ]
      | _ -> true)

let prop_flow_parity =
  QCheck.Test.make ~name:"Flow.analyze_many: jobs 2/4 = sequential" ~count:10
    QCheck.small_nat (fun seed ->
      let plans =
        List.filter_map Harness.Sample.script Harness.Sample.scripts
        @ [
            (let rng = Dsim.Rng.create (Int64.of_int (seed + 3)) in
             let w = Sc.new_world (S.create ()) in
             let probe = N.of_string "/a/b" in
             List.concat_map
               (fun op ->
                 [
                   Analysis.Flow.Op op;
                   Analysis.Flow.Flow
                     (Analysis.Flow.Use { proc = 0; name = probe });
                 ])
               (Sc.random_ops w ~rng ~n:40));
          ]
      in
      let strip r = { r with Analysis.Flow.config = Analysis.Flow.default_config } in
      let seq = List.map strip (Analysis.Flow.analyze_many plans) in
      List.for_all
        (fun jobs ->
          List.map strip (Analysis.Flow.analyze_many ~jobs plans) = seq)
        [ 2; 4 ])

(* Engine reports over the sample worlds: build each subject once and
   analyze it at every jobs level, so the comparison isolates the sweep. *)
let test_engine_parity () =
  let subjects =
    List.filter_map
      (fun scheme ->
        match Harness.Sample.world scheme with
        | None -> None
        | Some w ->
            Some
              ( scheme,
                Analysis.Subject.v
                  ~probes:(Harness.Sample.probes w)
                  ~rule:w.Harness.Sample.rule
                  ~activities:w.Harness.Sample.activities w.Harness.Sample.store
              ))
      Harness.Sample.schemes
  in
  let seq = Analysis.Engine.analyze_many subjects in
  List.iter
    (fun jobs ->
      check b
        (Printf.sprintf "jobs=%d reports equal sequential" jobs)
        true
        (Analysis.Engine.analyze_many ~jobs subjects = seq))
    [ 2; 4 ]

let test_matrix_parity () =
  let worlds = Harness.Exp_matrix.worlds () in
  let seq = Harness.Matrix.measure_all worlds in
  List.iter
    (fun jobs ->
      check b
        (Printf.sprintf "jobs=%d rows equal sequential" jobs)
        true
        (Harness.Matrix.measure_all ~jobs worlds = seq))
    [ 2; 4 ]

(* The chunked quoting in Codec.to_string must stay %S-compatible: the
   parser reads labels and file data back with Scanf %S, and the golden
   dumps predate the chunked writer. *)
let prop_quoting_matches_printf =
  QCheck.Test.make ~name:"codec quoting = Printf %%S" ~count:200
    QCheck.(string_gen (Gen.char_range '\000' '\255'))
    (fun s ->
      let st = S.create () in
      let f = S.create_object ~state:(S.Data s) st in
      S.set_label st f s;
      let dump = Naming.Codec.to_string st in
      let expect_file = Printf.sprintf "file %d %S" (E.id f) s in
      let expect_label = Printf.sprintf "label o%d %S" (E.id f) s in
      let lines = String.split_on_char '\n' dump in
      List.mem expect_file lines && List.mem expect_label lines)

(* A helper domain may pick up its batch's participant thunk late. It
   must claim a task before creating participant state, so no [local ()]
   is still running once [map_local] has returned: there that call
   would be an engine shard taken while the caller may already be
   writing the store again. To make the race likely, the caller's
   [local ()] waits (briefly) for a woken helper to enter its own, and
   a helper's [local ()] waits (briefly) to see whether its batch
   returns meanwhile. *)
let wait_for flag n =
  let k = ref 0 in
  while (not (Atomic.get flag)) && !k < n do
    incr k;
    Domain.cpu_relax ()
  done

let test_no_late_local () =
  let pool = P.create ~jobs:2 in
  let caller = Domain.self () in
  let late = Atomic.make 0 in
  for _ = 1 to 100_000 do
    let returned = Atomic.make false and helping = Atomic.make false in
    let local () =
      if Domain.self () = caller then wait_for helping 60
      else begin
        Atomic.set helping true;
        wait_for returned 60;
        if Atomic.get returned then Atomic.incr late
      end
    in
    ignore (P.map_local pool ~local (fun () x -> x) [ 1; 2 ]);
    Atomic.set returned true
  done;
  P.shutdown pool;
  check i "local () calls after their batch returned" 0 (Atomic.get late)

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_order;
    Alcotest.test_case "map_local participant states" `Quick
      test_map_local_states;
    Alcotest.test_case "lowest-index exception, pool reusable" `Quick
      test_exception_propagates;
    Alcotest.test_case "?jobs caps a batch" `Quick test_jobs_cap;
    Alcotest.test_case "?jobs caps a batch on a grown shared pool" `Quick
      test_jobs_cap_shared;
    Alcotest.test_case "store write barrier" `Quick test_write_barrier;
    Alcotest.test_case "engine parity (jobs 2/4)" `Quick test_engine_parity;
    Alcotest.test_case "matrix parity (jobs 2/4)" `Quick test_matrix_parity;
    Alcotest.test_case "fan-out at jobs 1: caller, writable, own engine"
      `Quick test_sequential_contract;
    Alcotest.test_case "fan-out at jobs 2: store frozen inside f" `Quick
      test_parallel_frozen;
    QCheck_alcotest.to_alcotest prop_measure_parity;
    QCheck_alcotest.to_alcotest prop_exchange_parity;
    QCheck_alcotest.to_alcotest prop_flow_parity;
    QCheck_alcotest.to_alcotest prop_quoting_matches_printf;
    Alcotest.test_case "no local () after the batch returns" `Quick
      test_no_late_local;
  ]
