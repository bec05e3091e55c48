(* Benchmark driver for the series the end-to-end benchmark (perfbench/,
   doc/PERF.md) cannot see: per-step resolve costs, analyzer scaling,
   exact vs sampled coherence on generated worlds across sizes and
   engines, and the consistency-tier trade-off table. The paper's
   experiments (E1–E10, A1–A4) run through `namingctl exp <id|all>` and
   `namingctl report`.

   Usage: bench/main.exe SELECTOR [--seed N] [--json] [--tag S] [--jobs N]

     micro     — b2..b11a, b14: the library's primitive operations
     cluster   — b16: static replication coherence analysis
                 (check-cluster) by replica count at one and four domains
     compiled  — b17: the compiled resolution engine vs the interpreter,
                 by path depth and store size, the engine-threaded
                 coherence sweep and a mutate/resolve bundle, then the
                 one-shot compile cost and the bundle's patch counters
     explore   — b19: bounded schedule-space exploration at one and four
                 domains, then one instrumented run (states/second)
     worlds    — b18: exact coherence sweep vs sampled estimate on
                 generated worlds at 10^3..10^6 entities (sizes
                 overridable via BENCH_WORLDS_SIZES), across engines and
                 domain counts
     modes     — b20: the coherence/availability/latency trade-off of
                 the `Lww_ae and `Leader_log tiers under identical seeded
                 fault schedules (doc/FAULTS.md); simulated time only,
                 so the table is identical at any --jobs

   Flags (anywhere on the command line):
     --seed N   — seed for the generated worlds (default: $BENCH_SEED or
                  42); runs are reproducible, never self-seeded
     --json     — also write BENCH_<date>[_<tag>].json in the cwd: one
                  document {date, seed, jobs, host, rows}; the `wrote`
                  trailer goes to stderr
     --tag S    — suffix for the JSON filename (so two runs of the same
                  day, e.g. --jobs 1 and --jobs 4, do not clobber each
                  other)
     --jobs N   — domain count for the sweep-shaped series (b4, b14,
                  b17f) and the one-shot runs; default $NAMING_JOBS,
                  else 1 (fully sequential) *)

let flags, positional =
  let rec go fl pos = function
    | [] -> (fl, List.rev pos)
    | "--seed" :: v :: rest -> go (("seed", v) :: fl) pos rest
    | "--json" :: rest -> go (("json", "") :: fl) pos rest
    | "--tag" :: v :: rest -> go (("tag", v) :: fl) pos rest
    | "--jobs" :: v :: rest -> go (("jobs", v) :: fl) pos rest
    | x :: rest -> go fl (x :: pos) rest
  in
  go [] [] (List.tl (Array.to_list Sys.argv))

let seed =
  match List.assoc_opt "seed" flags with
  | Some v -> (
      match int_of_string_opt v with
      | Some s -> s
      | None ->
          Printf.eprintf "--seed expects an integer, got %S\n" v;
          exit 2)
  | None -> (
      match Option.map int_of_string_opt (Sys.getenv_opt "BENCH_SEED") with
      | Some (Some s) -> s
      | Some None | None -> 42)

let json_mode = List.mem_assoc "json" flags
let tag = List.assoc_opt "tag" flags

let jobs =
  match List.assoc_opt "jobs" flags with
  | Some v -> (
      match int_of_string_opt v with
      | Some j when j >= 1 -> j
      | Some _ | None ->
          Printf.eprintf "--jobs expects a positive integer, got %S\n" v;
          exit 2)
  | None -> Naming.Pool.default_jobs ()

(* ------------------------------------------------------------------ *)
(* Micro-benchmark fixtures (built once, outside the timed regions).   *)

module Fixtures = struct
  let store = Naming.Store.create ()
  let unix = Schemes.Unix_scheme.build store

  (* /d1/d2/.../d32, for the b17 depth series *)
  let () =
    let rec go acc i =
      if i > 32 then acc else go (acc ^ Printf.sprintf "d%d/" i) (i + 1)
    in
    ignore (Vfs.Fs.mkdir_path (Schemes.Unix_scheme.fs unix) (go "/" 1))

  let proc = Schemes.Unix_scheme.spawn ~label:"bench" unix

  let name_of_depth d =
    Naming.Name.of_string
      (String.concat "/" ("" :: List.init d (fun i -> Printf.sprintf "d%d" (i + 1))))

  let ctx = Schemes.Process_env.context (Schemes.Unix_scheme.env unix) proc

  let newcastle_store = Naming.Store.create ()
  let newcastle =
    Schemes.Newcastle.build ~machines:[ "u1"; "u2"; "u3" ] newcastle_store

  let newcastle_procs =
    List.concat_map
      (fun m ->
        List.init 2 (fun i ->
            Schemes.Newcastle.spawn_on
              ~label:(Printf.sprintf "%s.%d" m i)
              newcastle ~machine:m))
      [ "u1"; "u2"; "u3" ]

  let newcastle_probes =
    Schemes.Newcastle.absolute_probes newcastle ~machine:"u1" ~max_depth:4

  (* b4: a two-machine Newcastle world with [n] activities *)
  let newcastle_of_size n =
    let store = Naming.Store.create () in
    let t = Schemes.Newcastle.build ~machines:[ "u1"; "u2" ] store in
    let occs =
      List.init n (fun i ->
          Naming.Occurrence.generated
            (Schemes.Newcastle.spawn_on
               ~label:(Printf.sprintf "p%d" i)
               t
               ~machine:(if i mod 2 = 0 then "u1" else "u2")))
    in
    let probes = Schemes.Newcastle.absolute_probes t ~machine:"u1" ~max_depth:4 in
    (store, Schemes.Newcastle.rule t, occs, probes)

  let registry =
    let r = Netaddr.Registry.create () in
    let n1 = Netaddr.Registry.add_network r ~label:"n1" in
    let n2 = Netaddr.Registry.add_network r ~label:"n2" in
    List.iter
      (fun (net, label) ->
        let m = Netaddr.Registry.add_machine r ~net ~label in
        for i = 1 to 4 do
          ignore
            (Netaddr.Registry.add_process r ~mach:m
               ~label:(Printf.sprintf "%s.p%d" label i))
        done)
      [ (n1, "m11"); (n1, "m12"); (n2, "m21"); (n2, "m22") ];
    r

  let regprocs = Netaddr.Registry.all_processes registry

  let embedded_store = Naming.Store.create ()
  let embedded_fs = Vfs.Fs.create embedded_store

  let project =
    let rng = Dsim.Rng.create 7L in
    Workload.Docgen.build embedded_fs ~at:"proj/tool" ~rng
      ~spec:Workload.Docgen.default_spec

  let project_sources = Workload.Docgen.sources embedded_fs project

  let codec_text = Naming.Codec.to_string newcastle_store

  let unix_root = Schemes.Unix_scheme.root unix

  let hot_name =
    Naming.Name.of_string
      (String.concat "/" (List.init 16 (fun i -> Printf.sprintf "d%d" (i + 1))))

  let jade =
    let st = Naming.Store.create () in
    Schemes.Jade.build
      ~services:
        [
          ("local", Schemes.Unix_scheme.default_tree);
          ("campus", Schemes.Unix_scheme.default_tree);
        ]
      st

  let jade_user =
    Schemes.Jade.new_user jade ~mounts:[ ("sw", [ "local"; "campus" ]) ]

  (* b14: the E10 scheme-matrix worlds, built once; the bench times the
     sweep itself (one row per world, three degrees per row). *)
  let matrix_worlds = Harness.Exp_matrix.worlds ()

  (* b17: the compiled engine over the depth-chain store above, a
     mutation-mix world of its own, and the store-size worlds that the
     interpreted and compiled size rows share. *)
  let compiled = Naming.Compiled.compile store
  let () = Naming.Compiled.refresh compiled

  let b17_store = Naming.Store.create ()
  let b17_fs = Vfs.Fs.create b17_store
  let () = Vfs.Fs.populate b17_fs Schemes.Unix_scheme.default_tree
  let b17_root = Vfs.Fs.root b17_fs
  let b17_compiled = Naming.Compiled.compile b17_store

  let b17_names =
    List.map Naming.Name.of_string
      [ "usr/bin/cc"; "bin/ls"; "etc/passwd"; "usr/lib/libc"; "bin" ]

  let b17_rng = Dsim.Rng.create 42L
  let b17_k = ref 0

  (* a fixed 4-deep probe path in stores of growing population:
     resolution cost should depend on path depth, not store size *)
  let store_sizes = [ 64; 256; 1024; 4096 ]

  let size_worlds =
    List.map
      (fun n ->
        ( n,
          lazy
            (let st = Naming.Store.create () in
             let fs = Vfs.Fs.create st in
             ignore (Vfs.Fs.mkdir_path fs "/a/b/c/d");
             for i = 1 to n do
               ignore
                 (Vfs.Fs.add_file fs (Printf.sprintf "/a/f%d" i) ~content:"x")
             done;
             (st, Vfs.Fs.root fs, Naming.Name.of_string "a/b/c/d")) ))
      store_sizes

  let size_world n = Lazy.force (List.assoc n size_worlds)

  (* b16, b19, b20: a small replicated name service and a shortened
     fault schedule; each run rebuilds its own cluster, so iterations
     are identical. *)
  let chaos_spec =
    {
      Dsim.Nameserver.dirs =
        [ Naming.Name.of_string "/a"; Naming.Name.of_string "/a/b" ];
      leaves = [ ("k1", "one"); ("k2", "two") ];
      links =
        [
          (Naming.Name.of_string "/a/x", "k1");
          (Naming.Name.of_string "/a/b/y", "k2");
        ];
    }

  let chaos_probes =
    chaos_spec.Dsim.Nameserver.dirs
    @ List.map fst chaos_spec.Dsim.Nameserver.links

  let chaos_config ~drop ~partition_for =
    {
      Dsim.Chaos.default with
      Dsim.Chaos.drop;
      duplicate = drop;
      partition_for;
      partition_at = 5.0;
      crash_at = 8.0;
      crash_for = (if partition_for > 0.0 then 6.0 else 0.0);
      writes = 16;
      write_window = 15.0;
      duration = 40.0;
    }
end

(* ------------------------------------------------------------------ *)
(* Result rows: every selector returns flat objects with a "name"; the *)
(* bechamel series rows are {name, ns_per_run, r_square}.              *)

module J = Naming.Json

let row name fields = J.Obj (("name", J.String name) :: fields)
let int n = J.Int n
let opt f = function Some v -> f v | None -> J.Null

let series_row (name, time, r2) =
  row name [ ("ns_per_run", opt (J.fixed 1) time); ("r_square", opt (J.fixed 4) r2) ]

(* Measurement methodology (doc/PERF.md), per series:
   1. a discarded warmup pass faults in the fixtures, warms caches and
      prices one run;
   2. the measured pass stabilises the GC before each sample and grows
      batches geometrically from a start of 100 runs — single-run
      samples are dominated by clock granularity on the sub-microsecond
      series and used to drive their OLS r² negative — or from fewer
      runs when 100 would cost more than [first_sample_ns]: a series
      costing tens of ms per run would otherwise fill its whole quota
      with one sample, and one sample has no fit;
   3. a series whose fit still has r² < 0.8 (scheduler noise on a busy
      machine) is re-measured with a doubled time budget, keeping its
      best fit, up to [max_attempts] passes. *)
let r2_target = 0.8
let max_attempts = 3
let first_sample_ns = 1e7

let run_bechamel ~name tests =
  let open Bechamel in
  let clock = Toolkit.Instance.monotonic_clock in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let measure elt =
    let warmup =
      Benchmark.run
        (Benchmark.cfg ~limit:25 ~quota:(Time.second 0.05) ~stabilize:false ())
        [ clock ] elt
    in
    let runs, ns =
      Array.fold_left
        (fun (runs, ns) s ->
          ( runs +. Measurement_raw.run s,
            ns +. Measurement_raw.get ~label:(Measure.label clock) s ))
        (0.0, 0.0) warmup.Benchmark.lr
    in
    let start = max 1 (min 100 (int_of_float (first_sample_ns *. runs /. ns))) in
    let measure_once quota =
      let cfg =
        Benchmark.cfg ~limit:1500 ~quota:(Time.second quota) ~stabilize:true
          ~sampling:(`Geometric 1.25) ~start ()
      in
      let est = Analyze.one ols clock (Benchmark.run cfg [ clock ] elt) in
      let time =
        match Analyze.OLS.estimates est with Some [ t ] -> Some t | Some _ | None -> None
      in
      let r2 =
        match Analyze.OLS.r_square est with
        | Some r when Float.is_finite r -> Some r
        | Some _ | None -> None
      in
      (time, r2)
    in
    let fit (_, r2) = Option.value r2 ~default:Float.neg_infinity in
    let rec attempt n quota =
      let m = measure_once quota in
      if fit m >= r2_target || n >= max_attempts then m
      else
        let retry = attempt (n + 1) (quota *. 2.0) in
        if fit m > fit retry then m else retry
    in
    let time, r2 = attempt 1 1.0 in
    (Test.Elt.name elt, time, r2)
  in
  let rows =
    List.map measure (Test.elements (Test.make_grouped ~name tests))
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  Printf.printf "%-60s  %16s  %8s\n" "benchmark" "ns/run" "r^2";
  Printf.printf "%s\n" (String.make 88 '-');
  List.iter
    (fun (name, time, r2) ->
      let time =
        match time with
        | Some t -> Printf.sprintf "%16.1f" t
        | None -> "             n/a"
      in
      let r2 =
        match r2 with Some r -> Printf.sprintf "%8.4f" r | None -> "     n/a"
      in
      Printf.printf "%-60s  %s  %s\n" name time r2)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* micro: b2..b11a, b14.                                               *)

let micro () =
  let open Bechamel in
  run_bechamel ~name:"micro"
    [
      Test.make ~name:"b2: unix scheme resolve /usr/bin/cc"
        (Staged.stage (fun () ->
             ignore (Schemes.Unix_scheme.resolve Fixtures.unix ~as_:Fixtures.proc "/usr/bin/cc")));
      Test.make ~name:"b3: coherence check, 6 activities x 1 name (newcastle)"
        (Staged.stage (fun () ->
             let occs =
               List.map Naming.Occurrence.generated Fixtures.newcastle_procs
             in
             ignore
               (Naming.Coherence.check Fixtures.newcastle_store
                  (Schemes.Newcastle.rule Fixtures.newcastle)
                  occs
                  (Naming.Name.of_string "/usr/bin/cc"))));
      Test.make_indexed ~name:"b4: coherence matrix row by #activities"
        ~args:[ 2; 4; 8; 16 ]
        (fun n ->
          let store, rule, occs, probes = Fixtures.newcastle_of_size n in
          Staged.stage (fun () ->
              ignore (Naming.Coherence.measure ~jobs store rule occs probes)));
      Test.make ~name:"b5: pqid map_for_transit"
        (Staged.stage (fun () ->
             match Fixtures.regprocs with
             | a :: b :: c :: _ ->
                 let pid =
                   Netaddr.Registry.pid_of Fixtures.registry ~target:c
                     ~relative_to:a
                 in
                 ignore
                   (Netaddr.Registry.map_for_transit Fixtures.registry ~sender:a
                      ~receiver:b pid)
             | _ -> assert false));
      Test.make ~name:"b6: algol scope resolution (one embedded ref)"
        (Staged.stage (fun () ->
             match Fixtures.project_sources with
             | (dir, file) :: _ ->
                 let refs = Schemes.Embedded.refs_of Fixtures.embedded_store file in
                 List.iter
                   (fun r ->
                     ignore
                       (Schemes.Embedded.resolve_at Fixtures.embedded_store ~dir r))
                   refs
             | [] -> assert false));
      Test.make ~name:"b7: subtree copy (project)"
        (Staged.stage (fun () ->
             ignore (Vfs.Subtree.copy Fixtures.embedded_fs Fixtures.project)));
      Test.make ~name:"b8: codec roundtrip (newcastle world)"
        (Staged.stage (fun () ->
             ignore (Naming.Codec.of_string Fixtures.codec_text)));
      Test.make ~name:"b8b: codec to_string (newcastle world)"
        (Staged.stage (fun () ->
             ignore (Naming.Codec.to_string Fixtures.newcastle_store)));
      Test.make ~name:"b9: jade union resolution (miss then hit)"
        (Staged.stage (fun () ->
             ignore
               (Schemes.Jade.resolve_str Fixtures.jade ~as_:Fixtures.jade_user
                  "sw/usr/bin/cc")));
      Test.make ~name:"b10: store lint (newcastle world)"
        (Staged.stage (fun () ->
             ignore (Naming.Lint.check Fixtures.newcastle_store)));
      Test.make ~name:"b11a: resolve_in, plain"
        (Staged.stage (fun () ->
             ignore
               (Naming.Resolver.resolve_in Fixtures.store Fixtures.unix_root
                  Fixtures.hot_name)));
      Test.make ~name:"b14: scheme matrix sweep (all E10 worlds)"
        (Staged.stage (fun () ->
             ignore (Harness.Matrix.measure_all ~jobs Fixtures.matrix_worlds)));
    ]
  |> List.map series_row

(* ------------------------------------------------------------------ *)
(* cluster (b16): the static replication coherence analyzer            *)
(* (check-cluster) across replica counts, at one and four domains.     *)
(* Eight subjects per iteration so the domain fan-out has real work    *)
(* to spread.                                                          *)

let cluster () =
  let open Bechamel in
  let subjects replicas =
    List.init 8 (fun i ->
        ( Printf.sprintf "s%d" i,
          Analysis.Replpasses.subject
            {
              (Fixtures.chaos_config ~drop:0.0 ~partition_for:10.0) with
              Dsim.Chaos.seed = i;
              replicas;
            }
            Fixtures.chaos_spec ))
  in
  let indexed ~name ~jobs =
    Test.make_indexed ~name ~args:[ 2; 4; 8; 16; 32 ] (fun replicas ->
        let subjects = subjects replicas in
        Staged.stage (fun () ->
            ignore (Analysis.Replpasses.report_many ~jobs subjects)))
  in
  run_bechamel ~name:"cluster"
    [
      indexed ~name:"b16a: check-cluster by replicas, jobs 1" ~jobs:1;
      indexed ~name:"b16b: check-cluster by replicas, jobs 4" ~jobs:4;
    ]
  |> List.map series_row

(* ------------------------------------------------------------------ *)
(* compiled (b17): the compiled engine against the interpreter on the  *)
(* resolver's dominant shapes — path depth, store size, the coherence  *)
(* sweep through ?jobs, and a mutation mix (where every tenth op       *)
(* forces an incremental patch) — then the one-shot compile cost.      *)

let compiled () =
  let open Bechamel in
  let depths = [ 2; 8; 16; 32 ] in
  let by_depth ~name f =
    Test.make_indexed ~name ~args:depths (fun d ->
        let n = Fixtures.name_of_depth d in
        Staged.stage (fun () -> ignore (f n)))
  in
  let by_size ~name f =
    Test.make_indexed ~name ~args:Fixtures.store_sizes (fun n ->
        Staged.stage (f (Fixtures.size_world n)))
  in
  let series =
    run_bechamel ~name:"compiled"
      [
        by_depth ~name:"b17a: resolve by depth, interpreted" (fun n ->
            Naming.Resolver.resolve Fixtures.store Fixtures.ctx n);
        by_depth ~name:"b17c: resolve by depth, compiled" (fun n ->
            Naming.Compiled.resolve Fixtures.compiled Fixtures.ctx n);
        by_size ~name:"b17d: resolve by store size, compiled"
          (fun (st, root, name) ->
            let c = Naming.Compiled.compile st in
            fun () -> ignore (Naming.Compiled.resolve_in c root name));
        by_size ~name:"b17h: resolve by store size, interpreted"
          (fun (st, root, name) () ->
            ignore (Naming.Resolver.resolve_in st root name));
        Test.make ~name:"b17f: coherence sweep (newcastle), engine compiled"
          (let engine =
             Naming.Engine.create `Compiled Fixtures.newcastle_store
           in
           let occs =
             List.map Naming.Occurrence.generated Fixtures.newcastle_procs
           in
           Staged.stage (fun () ->
               ignore
                 (Naming.Coherence.measure ~engine ~jobs
                    Fixtures.newcastle_store
                    (Schemes.Newcastle.rule Fixtures.newcastle)
                    occs Fixtures.newcastle_probes)));
        (* one mutation per nine resolves, so each bundle pays one
           incremental patch round; every run is identical in
           composition, so the per-run cost is stationary and the OLS
           fit meaningful *)
        Test.make ~name:"b17g: compiled resolve, 10-op mutate/resolve bundle"
          (Staged.stage (fun () ->
               let k = !Fixtures.b17_k in
               Fixtures.b17_k := k + 1;
               ignore
                 (Vfs.Fs.add_file Fixtures.b17_fs
                    (Printf.sprintf "/tmp/f%d" (k mod 64))
                    ~content:"x");
               for _ = 1 to 9 do
                 ignore
                   (Naming.Compiled.resolve_in Fixtures.b17_compiled
                      Fixtures.b17_root
                      (Dsim.Rng.pick Fixtures.b17_rng Fixtures.b17_names))
               done));
      ]
  in
  let st = Naming.Store.create () in
  let fs = Vfs.Fs.create st in
  Vfs.Fs.populate fs Schemes.Unix_scheme.default_tree;
  let t0 = Unix.gettimeofday () in
  let s = Naming.Compiled.stats (Naming.Compiled.compile st) in
  let compile_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Printf.printf
    "\nb17 compile (unix world): %.3f ms, nodes=%d slots=%d cells=%d \
     bindings=%d\n"
    compile_ms s.nodes s.slots s.table_cells s.bindings;
  let w = Naming.Compiled.stats Fixtures.b17_compiled in
  Printf.printf "b17 mutation mix: node_builds=%d patches=%d patched_nodes=%d\n"
    w.node_builds w.patches w.patched_nodes;
  let time_of name =
    List.find_map
      (fun (n, t, _) -> if String.equal n name then t else None)
      series
  in
  List.iter
    (fun d ->
      let interp =
        time_of (Printf.sprintf "compiled/b17a: resolve by depth, interpreted:%d" d)
      and comp =
        time_of (Printf.sprintf "compiled/b17c: resolve by depth, compiled:%d" d)
      in
      match (interp, comp) with
      | Some i, Some c when c > 0.0 ->
          Printf.printf "b17 speedup, depth %2d: %6.1f ns -> %6.1f ns (%.1fx)\n"
            d i c (i /. c)
      | _ -> ())
    depths;
  List.map series_row series
  @ [
      row "b17 compile (unix world)"
        [
          ("compile_ms", J.fixed 3 compile_ms);
          ("nodes", int s.nodes);
          ("slots", int s.slots);
          ("table_cells", int s.table_cells);
          ("bindings", int s.bindings);
        ];
      row "b17 mutation mix"
        [
          ("node_builds", int w.node_builds);
          ("patches", int w.patches);
          ("patched_nodes", int w.patched_nodes);
        ];
    ]

(* ------------------------------------------------------------------ *)
(* explore (b19): the adversarial schedule explorer — one bounded      *)
(* model-checking sweep (enumeration, abstract interpretation, witness *)
(* minimization and confirming replays) per iteration, at one and four *)
(* domains. The bounds are trimmed so an iteration stays in benchmark  *)
(* range while still synthesizing witnesses.                           *)

let explore () =
  let open Bechamel in
  let config =
    {
      Analysis.Explore.default with
      Analysis.Explore.base =
        { Analysis.Explore.default.base with Dsim.Chaos.duration = 48.0 };
      depth = 2;
      max_writes = 2;
      budget = 384;
    }
  in
  let run ~jobs () =
    ignore (Analysis.Explore.run ~jobs ~config Fixtures.chaos_spec)
  in
  let series =
    run_bechamel ~name:"explore"
      [
        Test.make ~name:"b19a: explore sweep, jobs 1" (Staged.stage (run ~jobs:1));
        Test.make ~name:"b19b: explore sweep, jobs 4" (Staged.stage (run ~jobs:4));
      ]
  in
  let t0 = Unix.gettimeofday () in
  let outcome = Analysis.Explore.run ~jobs ~config Fixtures.chaos_spec in
  let seconds = Unix.gettimeofday () -. t0 in
  let s = outcome.stats in
  let witnesses = List.length outcome.witnesses in
  let states_per_sec = float_of_int s.interpreted /. Float.max 1e-9 seconds in
  Printf.printf
    "\nb19 workload (depth %d, max_writes %d, budget %d, jobs %d): \
     enumerated=%d interpreted=%d pruned_por=%d pruned_symmetry=%d \
     replays=%d exhausted=%b witnesses=%d in %.3fs (%.0f states/s)\n"
    config.depth config.max_writes config.budget jobs s.enumerated
    s.interpreted s.pruned_por s.pruned_symmetry s.replays s.exhausted
    witnesses seconds states_per_sec;
  List.map series_row series
  @ [
      row "b19 workload"
        [
          ("candidates", int s.enumerated);
          ("interpreted", int s.interpreted);
          ("pruned_por", int s.pruned_por);
          ("pruned_symmetry", int s.pruned_symmetry);
          ("replays", int s.replays);
          ("exhausted", J.Bool s.exhausted);
          ("witnesses", int witnesses);
          ("seconds", J.fixed 3 seconds);
          ("states_per_sec", J.fixed 0 states_per_sec);
        ];
    ]

(* ------------------------------------------------------------------ *)
(* worlds (b18): exact coherence measurement against sampling-based    *)
(* estimation on generated worlds, by store size, engine and domain    *)
(* count. One-shot wall-clock measurements, not bechamel series: the   *)
(* exact sweep at 10^6 entities is minutes away from micro-benchmark   *)
(* range, and the point of the series is precisely that ratio.         *)

let worlds () =
  let sizes =
    match Sys.getenv_opt "BENCH_WORLDS_SIZES" with
    | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
    | None -> [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  List.concat_map
    (fun size ->
      let t0 = Unix.gettimeofday () in
      let w = Harness.Worldgen.build `Unixlike ~size ~seed:(Int64.of_int seed) in
      let build_s = Unix.gettimeofday () -. t0 in
      let store = w.Harness.Sample.store and rule = w.Harness.Sample.rule in
      let occs = List.map Naming.Occurrence.generated w.Harness.Sample.activities in
      let t0 = Unix.gettimeofday () in
      let probes = Array.of_seq (Harness.Worldgen.probes_seq w) in
      let enumerate_s = Unix.gettimeofday () -. t0 in
      let t0 = Unix.gettimeofday () in
      let report =
        Naming.Coherence.measure_seq ~jobs store rule occs (Array.to_seq probes)
      in
      let exact_s = Unix.gettimeofday () -. t0 in
      let exact_degree = Naming.Coherence.degree report in
      Printf.printf
        "b18 unixlike size=%d: build=%.3fs enumerate=%.3fs exact \
         degree=%.4f over %d probes in %.3fs\n%!"
        size build_s enumerate_s exact_degree (Array.length probes) exact_s;
      (* the estimator draws uniformly from the same probe population
         the exact sweep covers, so its interval targets exactly the
         degree measured above — the b18 accuracy columns compare like
         with like *)
      let sampler = Harness.Worldgen.uniform_sampler probes in
      let estimate kind jobs =
        let rng = Dsim.Rng.create (Int64.of_int seed) in
        let t0 = Unix.gettimeofday () in
        (* each compiled row gets a fresh engine with no tables, as a
           freshly decoded store would: the tables its walks need are
           built inside the timing, not inherited from the exact sweep
           above *)
        let engine =
          match kind with
          | `Interpreted -> Naming.Engine.create kind store
          | `Compiled -> Naming.Engine.Compiled (Naming.Compiled.create store)
        in
        let (est : Naming.Coherence.estimate) =
          Naming.Coherence.estimate ~engine ~jobs ~rng store rule occs sampler
        in
        let seconds = Unix.gettimeofday () -. t0 in
        let label = Naming.Engine.label engine in
        let speedup = exact_s /. Float.max 1e-9 seconds in
        Printf.printf
          "  estimate engine=%-11s jobs=%d: degree=%.4f ci=[%.4f, %.4f] \
           samples=%d in %.4fs (%.0fx)\n%!"
          label jobs est.degree est.ci_low est.ci_high est.samples seconds
          speedup;
        row
          (Printf.sprintf "b18 estimate, unixlike %d, %s, jobs %d" size label jobs)
          [
            ("size", int size);
            ("engine", J.String label);
            ("jobs", int jobs);
            ("degree", J.fixed 6 est.degree);
            ("ci_low", J.fixed 6 est.ci_low);
            ("ci_high", J.fixed 6 est.ci_high);
            ("samples", int est.samples);
            ("seconds", J.fixed 4 seconds);
            ("speedup", J.fixed 1 speedup);
          ]
      in
      row
        (Printf.sprintf "b18 exact, unixlike %d" size)
        [
          ("size", int size);
          ("build_s", J.fixed 3 build_s);
          ("enumerate_s", J.fixed 3 enumerate_s);
          ("probes", int (Array.length probes));
          ("degree", J.fixed 6 exact_degree);
          ("seconds", J.fixed 3 exact_s);
        ]
      :: List.concat_map
           (fun kind -> List.map (estimate kind) [ 1; 4 ])
           [ `Interpreted; `Compiled ])
    sizes

(* ------------------------------------------------------------------ *)
(* modes (b20): the coherence/availability/latency trade-off matrix    *)
(* behind doc/FAULTS.md — identical seeded fault schedules under both  *)
(* consistency tiers. One-shot simulation runs whose metrics live      *)
(* entirely in simulated time, so the table and the rows are           *)
(* byte-identical at any --jobs; there is nothing for bechamel to fit. *)

(* A fault grid — none, loss, partition + crash, both — plus a
   leader-kill scenario: the kill is a no-op under `Lww_ae (there is no
   leader to depose), so that row prices the failover window the leader
   tier alone pays. *)
let scenarios =
  [
    ("healthy", Fixtures.chaos_config ~drop:0.0 ~partition_for:0.0);
    ("drop-5%", Fixtures.chaos_config ~drop:0.05 ~partition_for:0.0);
    ("partition+crash", Fixtures.chaos_config ~drop:0.0 ~partition_for:10.0);
    ( "partition+crash+drop",
      Fixtures.chaos_config ~drop:0.05 ~partition_for:10.0 );
    ( "leader-kill",
      {
        (Fixtures.chaos_config ~drop:0.0 ~partition_for:0.0) with
        Dsim.Chaos.leader_kill_at = 5.0;
        leader_kill_for = 6.0;
      } );
  ]

let modes () =
  let runs =
    List.concat_map
      (fun (scenario, base) ->
        List.map
          (fun mode ->
            let config = { base with Dsim.Chaos.mode } in
            ( scenario,
              Dsim.Chaos.mode_to_string mode,
              Dsim.Chaos.run ~jobs ~config ~spec:Fixtures.chaos_spec
                ~probes:Fixtures.chaos_probes () ))
          [ `Lww_ae; `Leader_log ])
      scenarios
  in
  (* worst sampled coherence degree in-run, and committed / sent *)
  let degree_min (r : Dsim.Chaos.result) =
    List.fold_left
      (fun acc (s : Dsim.Chaos.sample) ->
        Float.min acc (Naming.Coherence.degree s.report))
      1.0 r.samples
  and avail (r : Dsim.Chaos.result) =
    float_of_int r.writes_acked /. float_of_int (max 1 r.writes_sent)
  and lww_losses (r : Dsim.Chaos.result) =
    Dsim.Counters.get r.ns Dsim.Nameserver.lww_losses
  and elections (r : Dsim.Chaos.result) =
    Dsim.Counters.get r.ns Dsim.Nameserver.elections
  in
  let opt_f = function Some t -> Printf.sprintf "%8.1f" t | None -> "       -" in
  let opt_i = function Some n -> Printf.sprintf "%6d" n | None -> "     -" in
  Printf.printf
    "b20 consistency-tier trade-off (seed %d; simulated time, \
     jobs-independent)\n"
    seed;
  Printf.printf "%-22s %-7s %10s %10s %7s %9s %9s %5s %8s %6s %5s %7s %7s %6s\n"
    "scenario" "mode" "degree_min" "degree_end" "avail" "lat_mean" "lat_max"
    "conv" "conv_t" "rounds" "lost" "lww_lost" "unknown" "elects";
  Printf.printf "%s\n" (String.make 132 '-');
  List.iter
    (fun (scenario, mode, (r : Dsim.Chaos.result)) ->
      Printf.printf
        "%-22s %-7s %10.4f %10.4f %7.3f %9.2f %9.2f %5b %s %s %5d %8d %7d \
         %6d\n"
        scenario mode (degree_min r)
        (Naming.Coherence.degree r.final_report)
        (avail r) r.latency_mean r.latency_max r.converged
        (opt_f r.converge_time) (opt_i r.rounds_to_converge) r.writes_lost
        (lww_losses r) r.txns_unknown (elections r))
    runs;
  List.map
    (fun (scenario, mode, (r : Dsim.Chaos.result)) ->
      row
        (Printf.sprintf "b20 %s, %s" scenario mode)
        [
          ("scenario", J.String scenario);
          ("mode", J.String mode);
          ("degree_min", J.fixed 6 (degree_min r));
          ("degree_final", J.fixed 6 (Naming.Coherence.degree r.final_report));
          ("sent", int r.writes_sent);
          ("committed", int r.writes_acked);
          ("availability", J.fixed 4 (avail r));
          ("latency_mean", J.fixed 4 r.latency_mean);
          ("latency_max", J.fixed 4 r.latency_max);
          ("converged", J.Bool r.converged);
          ("converge_time", opt (J.fixed 1) r.converge_time);
          ("rounds_to_converge", opt int r.rounds_to_converge);
          ("lost", int r.writes_lost);
          ("lww_losses", int (lww_losses r));
          ("unknown", int r.txns_unknown);
          ("elections", int (elections r));
        ])
    runs

(* ------------------------------------------------------------------ *)
(* --json: machine-readable results, one file per day and tag.         *)

let today () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

(* The checkout's commit, read from .git in the working directory
   without running git (which would search the directories above it);
   None outside a checkout. *)
let commit () =
  let read path = String.trim (In_channel.with_open_bin path In_channel.input_all) in
  try
    let head = read ".git/HEAD" in
    match String.starts_with ~prefix:"ref: " head with
    | false -> Some head
    | true ->
        let ref_ = String.sub head 5 (String.length head - 5) in
        if Sys.file_exists (".git/" ^ ref_) then Some (read (".git/" ^ ref_))
        else
          List.find_map
            (fun line ->
              match String.split_on_char ' ' line with
              | [ sha; r ] when String.equal r ref_ -> Some sha
              | _ -> None)
            (String.split_on_char '\n' (read ".git/packed-refs"))
  with Sys_error _ -> None

let write_json rows =
  let path =
    match tag with
    | None -> Printf.sprintf "BENCH_%s.json" (today ())
    | Some t -> Printf.sprintf "BENCH_%s_%s.json" (today ()) t
  in
  let host =
    J.Obj
      [
        ("domains", int (Domain.recommended_domain_count ()));
        ("ocaml", J.String Sys.ocaml_version);
        ("commit", opt (fun c -> J.String c) (commit ()));
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (J.to_string_pretty
           (J.Obj
              [
                ("date", J.String (today ()));
                ("seed", int seed);
                ("jobs", int jobs);
                ("host", host);
                ("rows", J.List rows);
              ]));
      output_char oc '\n');
  print_newline ();
  Printf.eprintf "wrote %s\n" path

let selectors =
  [
    ("micro", micro);
    ("cluster", cluster);
    ("compiled", compiled);
    ("explore", explore);
    ("worlds", worlds);
    ("modes", modes);
  ]

let () =
  match positional with
  | [ s ] when List.mem_assoc s selectors ->
      let rows = (List.assoc s selectors) () in
      if json_mode then write_json rows
  | _ ->
      Printf.eprintf
        "usage: bench/main.exe (%s) [--seed N] [--json] [--tag S] [--jobs N]\n\
         (the paper's experiments: namingctl exp <id|all>, namingctl report)\n"
        (String.concat " | " (List.map fst selectors));
      exit 2
