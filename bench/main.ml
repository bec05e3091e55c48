(* Benchmark and experiment driver.

   Usage:
     bench/main.exe            — run every experiment (E1–E10, A1, A2),
                                 then the Bechamel benchmarks
     bench/main.exe e3         — run one experiment (e1..e10, a1, a2)
     bench/main.exe exps       — experiments only
     bench/main.exe micro      — micro-benchmarks only
     bench/main.exe scaling    — cost-vs-size series (depth, #activities,
                                 store size)
     bench/main.exe chaos      — b15: full chaos runs (fault-injected
                                 replicated name service) at three fault
                                 levels
     bench/main.exe cluster    — b16: static replication coherence
                                 analysis (check-cluster) across replica
                                 counts at one and four domains
     bench/main.exe compiled   — b17: the compiled resolution engine vs
                                 the interpreter, by path depth, store
                                 size, coherence sweep and mutation mix
     bench/main.exe explore    — b19: bounded schedule-space exploration
                                 (explore) at one and four domains, plus
                                 an instrumented workload run reporting
                                 states/second
     bench/main.exe worlds     — b18: exact coherence measurement vs
                                 sampling-based estimation on generated
                                 worlds at 10^3..10^6 entities, across
                                 engines and domain counts (sizes
                                 overridable via BENCH_WORLDS_SIZES)
     bench/main.exe modes      — b20: the coherence/availability/latency
                                 trade-off matrix — identical seeded
                                 fault schedules under the `Lww_ae and
                                 `Leader_log tiers (doc/FAULTS.md)

   Flags (anywhere on the command line):
     --seed N   — seed for the global RNG (default: $BENCH_SEED or 42);
                  runs are reproducible by default, never self-seeded
     --json     — also write results to BENCH_<date>[_<tag>].json in the cwd
     --tag S    — suffix for the JSON filename (so two runs of the same
                  day, e.g. --jobs 1 and --jobs 4, do not clobber each
                  other)
     --jobs N   — domain count for the sweep-shaped series (b4, b12, b14)
                  and the batch entry points behind them; default
                  $NAMING_JOBS, else 1 (fully sequential)

   One Bechamel test per reproduced artefact: e1..e10/a1..a4 measure the
   cost of the measurement behind the corresponding figure/claim; b1..b14
   measure the primitive operations of the library. Every series runs a
   discarded warmup pass first and a stabilised measured pass with a
   minimum batch size, so the OLS fit has honest support (see
   doc/PERF.md). *)

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

let () = Random.init seed

(* ------------------------------------------------------------------ *)
(* Micro-benchmark fixtures (built once, outside the timed regions).   *)

module Fixtures = struct
  let store = Naming.Store.create ()
  let unix = Schemes.Unix_scheme.build store

  (* /d1/d2/.../d32, for the depth-sweep resolver bench *)
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

  (* name-flow analysis: the sample plans, and generated plans for the
     size sweep (ops interleaved with a probing flow) *)
  let flow_plans = List.filter_map Harness.Sample.script Harness.Sample.scripts

  let flow_plan_of_size n =
    let rng = Dsim.Rng.create (Int64.of_int (n + 11)) in
    let w = Workload.Script.new_world (Naming.Store.create ()) in
    let probe = Naming.Name.of_string "/a/b" in
    List.concat_map
      (fun op ->
        [
          Analysis.Flow.Op op;
          Analysis.Flow.Flow (Analysis.Flow.Use { proc = 0; name = probe });
        ])
      (Workload.Script.random_ops w ~rng ~n)

  (* b14: the E10 scheme-matrix worlds, built once; the bench times the
     sweep itself (one row per world, three degrees per row). *)
  let matrix_worlds = Harness.Exp_matrix.worlds ()

  (* b17: the compiled engine over the b1 store (the /d1/../d32 chain is
     already in place above) and a mutation-mix world of its own. *)
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

  (* b15: the chaos harness — a complete fault-injection run over a
     small replicated name service per bench iteration. The spec and a
     shortened schedule are fixed; each run rebuilds its own cluster, so
     iterations are identical and the OLS fit honest. *)
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

(* Every run_bechamel call appends its rows here; --json dumps them and
   the b17 report reads its depth series back out. *)
let collected : (string * float option * float option) list ref = ref []

let micro_tests =
  let open Bechamel in
  let resolve_depth d =
    Test.make
      ~name:(Printf.sprintf "b1: resolve depth-%d path" d)
      (Staged.stage (fun () ->
           ignore
             (Naming.Resolver.resolve Fixtures.store Fixtures.ctx
                (Fixtures.name_of_depth d))))
  in
  [
    resolve_depth 2;
    resolve_depth 8;
    resolve_depth 16;
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
    Test.make ~name:"b4: coherence matrix row (newcastle, all probes)"
      (Staged.stage (fun () ->
           let occs =
             List.map Naming.Occurrence.generated Fixtures.newcastle_procs
           in
           ignore
             (Naming.Coherence.measure ~jobs Fixtures.newcastle_store
                (Schemes.Newcastle.rule Fixtures.newcastle)
                occs Fixtures.newcastle_probes)));
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
    Test.make ~name:"b12: flow analysis (all sample plans)"
      (Staged.stage (fun () ->
           ignore (Analysis.Flow.analyze_many ~jobs Fixtures.flow_plans)));
    Test.make ~name:"b14: scheme matrix sweep (all E10 worlds)"
      (Staged.stage (fun () ->
           ignore (Harness.Matrix.measure_all ~jobs Fixtures.matrix_worlds)));
  ]

(* The b15 series: one full chaos run per iteration, at three fault
   levels — the cost of measuring coherence under failure. Shares the
   `chaos` positional selector with BENCH_<date>_chaos.json. *)
let chaos_tests =
  let open Bechamel in
  let run ~drop ~partition_for () =
    ignore
      (Dsim.Chaos.run ~jobs
         ~config:(Fixtures.chaos_config ~drop ~partition_for)
         ~spec:Fixtures.chaos_spec ~probes:Fixtures.chaos_probes ())
  in
  [
    Test.make ~name:"b15a: chaos run, fault-free"
      (Staged.stage (run ~drop:0.0 ~partition_for:0.0));
    Test.make ~name:"b15b: chaos run, 5% loss + partition + crash"
      (Staged.stage (run ~drop:0.05 ~partition_for:10.0));
    Test.make ~name:"b15c: chaos run, 20% loss + partition + crash"
      (Staged.stage (run ~drop:0.2 ~partition_for:10.0));
  ]

(* The b16 series: the static replication coherence analyzer
   (check-cluster) across replica counts, at one and four domains — the
   abstract-interpretation counterpart of b15's concrete runs. Eight
   subjects per iteration so the domain fan-out has real work to
   spread. Shares the `cluster` positional selector with
   BENCH_<date>_b16.json. *)
let cluster_tests =
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
    Test.make_indexed ~name ~args:[ 2; 4; 8 ] (fun replicas ->
        let subjects = subjects replicas in
        Staged.stage (fun () ->
            ignore (Analysis.Replpasses.report_many ~jobs subjects)))
  in
  [
    indexed ~name:"b16a: check-cluster by replicas, jobs 1" ~jobs:1;
    indexed ~name:"b16b: check-cluster by replicas, jobs 4" ~jobs:4;
  ]

(* The b17 series: the compiled engine against the interpreter on the
   resolver's dominant shapes — path depth (the b1/b2 axis), store size
   (the s4 axis), the coherence sweep through ?jobs, and a mutation mix
   (where every tenth op forces an incremental patch). Shares the
   `compiled` positional selector with BENCH_<date>_b17.json. *)
let compiled_tests =
  let open Bechamel in
  let depths = [ 2; 8; 16; 32 ] in
  let by_depth ~name f =
    Test.make_indexed ~name ~args:depths (fun d ->
        let n = Fixtures.name_of_depth d in
        Staged.stage (fun () -> ignore (f n)))
  in
  let s4_world n =
    let st = Naming.Store.create () in
    let fs = Vfs.Fs.create st in
    ignore (Vfs.Fs.mkdir_path fs "/a/b/c/d");
    for i = 1 to n do
      ignore (Vfs.Fs.add_file fs (Printf.sprintf "/a/f%d" i) ~content:"x")
    done;
    (st, Vfs.Fs.root fs, Naming.Name.of_string "a/b/c/d")
  in
  let sweep_engine kind =
    let engine = Naming.Engine.create kind Fixtures.newcastle_store in
    let occs = List.map Naming.Occurrence.generated Fixtures.newcastle_procs in
    Staged.stage (fun () ->
        ignore
          (Naming.Coherence.measure ~engine ~jobs Fixtures.newcastle_store
             (Schemes.Newcastle.rule Fixtures.newcastle)
             occs Fixtures.newcastle_probes))
  in
  [
    by_depth ~name:"b17a: resolve by depth, interpreted" (fun n ->
        Naming.Resolver.resolve Fixtures.store Fixtures.ctx n);
    by_depth ~name:"b17c: resolve by depth, compiled" (fun n ->
        Naming.Compiled.resolve Fixtures.compiled Fixtures.ctx n);
    Test.make_indexed ~name:"b17d: resolve by store size, compiled"
      ~args:[ 64; 256; 1024; 4096 ]
      (fun n ->
        let st, root, name = s4_world n in
        let c = Naming.Compiled.compile st in
        Staged.stage (fun () -> ignore (Naming.Compiled.resolve_in c root name)));
    Test.make ~name:"b17f: coherence sweep (newcastle), engine compiled"
      (sweep_engine `Compiled);
    (* one mutation per nine resolves, so each bundle pays one
       incremental patch round; every run is identical in composition,
       so the per-run cost is stationary and the OLS fit meaningful *)
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

let compiled_workload : (float * Naming.Compiled.stats) option ref = ref None

(* Compile-from-scratch cost and the incremental-patch counters of the
   b17g fixture, plus the headline depth-series speedup computed from
   the rows just measured. *)
let report_compiled_workload () =
  let st = Naming.Store.create () in
  let fs = Vfs.Fs.create st in
  Vfs.Fs.populate fs Schemes.Unix_scheme.default_tree;
  let t0 = Unix.gettimeofday () in
  let c = Naming.Compiled.compile st in
  let compile_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let s = Naming.Compiled.stats c in
  compiled_workload := Some (compile_ms, s);
  Printf.printf
    "\nb17 compile (unix world): %.3f ms, nodes=%d slots=%d cells=%d \
     bindings=%d\n"
    compile_ms s.Naming.Compiled.nodes s.Naming.Compiled.slots
    s.Naming.Compiled.table_cells s.Naming.Compiled.bindings;
  let w = Naming.Compiled.stats Fixtures.b17_compiled in
  Printf.printf
    "b17 mutation mix: node_builds=%d patches=%d patched_nodes=%d\n"
    w.Naming.Compiled.node_builds w.Naming.Compiled.patches
    w.Naming.Compiled.patched_nodes;
  let time_of name =
    List.find_map
      (fun (n, t, _) -> if String.equal n name then t else None)
      !collected
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
    [ 2; 8; 16; 32 ]

(* The b19 series: the adversarial schedule explorer — one bounded
   model-checking sweep (enumeration, abstract interpretation, witness
   minimization and confirming replays) per iteration, at one and four
   domains. The bounds are trimmed so an iteration stays in benchmark
   range while still synthesizing witnesses. Shares the `explore`
   positional selector with BENCH_<date>_b19.json. *)
let explore_config =
  {
    Analysis.Explore.default with
    Analysis.Explore.base =
      { Analysis.Explore.default.Analysis.Explore.base with
        Dsim.Chaos.duration = 48.0 };
    depth = 2;
    max_writes = 2;
    budget = 384;
  }

let explore_tests =
  let open Bechamel in
  let run ~jobs () =
    ignore
      (Analysis.Explore.run ~jobs ~config:explore_config Fixtures.chaos_spec)
  in
  [
    Test.make ~name:"b19a: explore sweep, jobs 1" (Staged.stage (run ~jobs:1));
    Test.make ~name:"b19b: explore sweep, jobs 4" (Staged.stage (run ~jobs:4));
  ]

let explore_workload : (Analysis.Explore.stats * float) option ref = ref None

let report_explore_workload () =
  let t0 = Unix.gettimeofday () in
  let outcome = Analysis.Explore.run ~jobs ~config:explore_config
      Fixtures.chaos_spec in
  let seconds = Unix.gettimeofday () -. t0 in
  let s = outcome.Analysis.Explore.stats in
  explore_workload := Some (s, seconds);
  Printf.printf
    "\nb19 workload (depth %d, max_writes %d, budget %d, jobs %d): \
     enumerated=%d interpreted=%d pruned_por=%d pruned_symmetry=%d \
     replays=%d exhausted=%b witnesses=%d in %.3fs (%.0f states/s)\n"
    explore_config.Analysis.Explore.depth
    explore_config.Analysis.Explore.max_writes
    explore_config.Analysis.Explore.budget jobs s.Analysis.Explore.enumerated
    s.Analysis.Explore.interpreted s.Analysis.Explore.pruned_por
    s.Analysis.Explore.pruned_symmetry s.Analysis.Explore.replays
    s.Analysis.Explore.exhausted
    (List.length outcome.Analysis.Explore.witnesses)
    seconds
    (float_of_int s.Analysis.Explore.interpreted /. Float.max 1e-9 seconds)

(* The b18 series: exact coherence measurement against sampling-based
   estimation on generated worlds, by store size, engine and domain
   count. These are one-shot wall-clock measurements, not bechamel
   series — the exact sweep at 10^6 entities is minutes away from
   micro-benchmark range, and the point of the series is precisely that
   ratio. Shares the `worlds` positional selector with
   BENCH_<date>_b18.json. *)
type b18_run = {
  b18_engine : string;
  b18_jobs : int;
  b18_est : Naming.Coherence.estimate;
  b18_seconds : float;
}

type b18_row = {
  b18_size : int;
  b18_build_s : float;
  b18_enumerate_s : float;
  b18_probes : int;
  b18_exact_degree : float;
  b18_exact_s : float;
  b18_runs : b18_run list;
}

let b18_rows : b18_row list ref = ref []

let b18_sizes =
  match Sys.getenv_opt "BENCH_WORLDS_SIZES" with
  | Some s ->
      List.filter_map int_of_string_opt (String.split_on_char ',' s)
  | None -> [ 1_000; 10_000; 100_000; 1_000_000 ]

let run_worlds () =
  let rows =
    List.map
      (fun size ->
        let t0 = Unix.gettimeofday () in
        let w =
          Harness.Worldgen.build `Unixlike ~size ~seed:(Int64.of_int seed)
        in
        let build_s = Unix.gettimeofday () -. t0 in
        let occs =
          List.map Naming.Occurrence.generated w.Harness.Sample.activities
        in
        let t0 = Unix.gettimeofday () in
        let probes = Array.of_seq (Harness.Worldgen.probes_seq w) in
        let enumerate_s = Unix.gettimeofday () -. t0 in
        let t0 = Unix.gettimeofday () in
        let report =
          Naming.Coherence.measure_seq ~jobs w.Harness.Sample.store
            w.Harness.Sample.rule occs (Array.to_seq probes)
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
        let runs =
          List.concat_map
            (fun kind ->
              List.map
                (fun jobs ->
                  let rng = Dsim.Rng.create (Int64.of_int seed) in
                  let t0 = Unix.gettimeofday () in
                  (* each compiled row gets a fresh engine with no
                     tables, as a freshly decoded store would: the
                     tables its walks need are built inside the timing,
                     not inherited from the exact sweep above *)
                  let engine =
                    match kind with
                    | `Interpreted ->
                        Naming.Engine.create kind w.Harness.Sample.store
                    | `Compiled ->
                        Naming.Engine.Compiled
                          (Naming.Compiled.create w.Harness.Sample.store)
                  in
                  let est =
                    Naming.Coherence.estimate ~engine ~jobs ~rng
                      w.Harness.Sample.store w.Harness.Sample.rule occs
                      sampler
                  in
                  let seconds = Unix.gettimeofday () -. t0 in
                  let label = Naming.Engine.label engine in
                  Printf.printf
                    "  estimate engine=%-11s jobs=%d: degree=%.4f \
                     ci=[%.4f, %.4f] samples=%d in %.4fs (%.0fx)\n%!"
                    label jobs est.Naming.Coherence.degree
                    est.Naming.Coherence.ci_low est.Naming.Coherence.ci_high
                    est.Naming.Coherence.samples seconds
                    (exact_s /. Float.max 1e-9 seconds);
                  { b18_engine = label; b18_jobs = jobs; b18_est = est;
                    b18_seconds = seconds })
                [ 1; 4 ])
            [ `Interpreted; `Compiled ]
        in
        { b18_size = size; b18_build_s = build_s;
          b18_enumerate_s = enumerate_s; b18_probes = Array.length probes;
          b18_exact_degree = exact_degree; b18_exact_s = exact_s;
          b18_runs = runs })
      b18_sizes
  in
  b18_rows := rows

(* The b20 series: the coherence/availability/latency trade-off matrix
   behind doc/FAULTS.md — identical seeded fault schedules run under
   both consistency tiers (`Lww_ae and `Leader_log), reporting the
   coherence degree, write availability and client-visible commit
   latency each tier delivers. These are one-shot simulation runs whose
   metrics live entirely in simulated time, so the printed table and
   the JSON rows are byte-identical at any --jobs count; there is
   nothing for bechamel to fit. Shares the `modes` positional selector
   with BENCH_<date>_b20.json. *)
type b20_row = {
  b20_scenario : string;
  b20_mode : string;
  b20_degree_min : float;  (** worst sampled coherence degree in-run *)
  b20_degree_final : float;
  b20_sent : int;
  b20_committed : int;  (** acked writes / committed txns *)
  b20_avail : float;  (** committed / sent *)
  b20_lat_mean : float;  (** client-visible success latency, sim s *)
  b20_lat_max : float;
  b20_converged : bool;
  b20_converge : float option;
  b20_rounds : int option;
  b20_lost : int;  (** exhausted retries / unknown-outcome txns *)
  b20_lww_losses : int;
  b20_unknown : int;
  b20_elections : int;
}

let b20_rows : b20_row list ref = ref []

(* The same fault grid as b15 plus a leader-kill scenario: the kill is
   a no-op under `Lww_ae (there is no leader to depose), so that row
   prices the failover window the leader tier alone pays. *)
let b20_scenarios =
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

let run_modes () =
  let rows =
    List.concat_map
      (fun (scenario, base) ->
        List.map
          (fun mode ->
            let config = { base with Dsim.Chaos.mode } in
            let (r : Dsim.Chaos.result) =
              Dsim.Chaos.run ~jobs ~config ~spec:Fixtures.chaos_spec
                ~probes:Fixtures.chaos_probes ()
            in
            let degree_min =
              List.fold_left
                (fun acc (s : Dsim.Chaos.sample) ->
                  Float.min acc (Naming.Coherence.degree s.report))
                1.0 r.samples
            in
            {
              b20_scenario = scenario;
              b20_mode = Dsim.Chaos.mode_to_string mode;
              b20_degree_min = degree_min;
              b20_degree_final = Naming.Coherence.degree r.final_report;
              b20_sent = r.writes_sent;
              b20_committed = r.writes_acked;
              b20_avail =
                float_of_int r.writes_acked
                /. float_of_int (max 1 r.writes_sent);
              b20_lat_mean = r.latency_mean;
              b20_lat_max = r.latency_max;
              b20_converged = r.converged;
              b20_converge = r.converge_time;
              b20_rounds = r.rounds_to_converge;
              b20_lost = r.writes_lost;
              b20_lww_losses = r.ns.Dsim.Nameserver.lww_losses;
              b20_unknown = r.txns_unknown;
              b20_elections = r.ns.Dsim.Nameserver.elections;
            })
          [ `Lww_ae; `Leader_log ])
      b20_scenarios
  in
  b20_rows := rows;
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
    (fun row ->
      Printf.printf
        "%-22s %-7s %10.4f %10.4f %7.3f %9.2f %9.2f %5b %s %s %5d %8d %7d \
         %6d\n"
        row.b20_scenario row.b20_mode row.b20_degree_min row.b20_degree_final
        row.b20_avail row.b20_lat_mean row.b20_lat_max row.b20_converged
        (opt_f row.b20_converge) (opt_i row.b20_rounds) row.b20_lost
        row.b20_lww_losses row.b20_unknown row.b20_elections)
    rows

let experiment_tests =
  let open Bechamel in
  [
    Test.make ~name:"e1: figure 1 measurement"
      (Staged.stage (fun () -> ignore (Harness.Exp_sources.measure ())));
    Test.make ~name:"e2: figure 2 sweep"
      (Staged.stage (fun () -> ignore (Harness.Exp_rules.sweep ())));
    Test.make ~name:"e3: figure 3 newcastle"
      (Staged.stage (fun () -> ignore (Harness.Exp_newcastle.measure ())));
    Test.make ~name:"e4: figure 4 shared graph"
      (Staged.stage (fun () -> ignore (Harness.Exp_shared.measure ())));
    Test.make ~name:"e5: figure 5 crosslinks"
      (Staged.stage (fun () -> ignore (Harness.Exp_crosslink.measure ())));
    Test.make ~name:"e6: figure 6 embedded names"
      (Staged.stage (fun () -> ignore (Harness.Exp_embedded.measure ())));
    Test.make ~name:"e7: pqid reconfiguration"
      (Staged.stage (fun () -> ignore (Harness.Exp_pqid.measure ())));
    Test.make ~name:"e8: remote execution"
      (Staged.stage (fun () -> ignore (Harness.Exp_remote_exec.measure ())));
    Test.make ~name:"e9: federation"
      (Staged.stage (fun () -> ignore (Harness.Exp_federation.measure ())));
    Test.make ~name:"e10: scheme matrix"
      (Staged.stage (fun () -> ignore (Harness.Exp_matrix.measure ())));
    Test.make ~name:"a1: composite-rule ablation"
      (Staged.stage (fun () -> ignore (Harness.Exp_composite.sweep ())));
    Test.make ~name:"a2: recursive newcastle"
      (Staged.stage (fun () -> ignore (Harness.Exp_recursive.measure ())));
    Test.make ~name:"a3: renumbering vs migration"
      (Staged.stage (fun () -> ignore (Harness.Exp_migration.measure ())));
    Test.make ~name:"a4: replica drift and sync"
      (Staged.stage (fun () -> ignore (Harness.Exp_replicas.measure ())));
  ]

(* Scaling series: resolver cost vs path depth, and coherence-matrix cost
   vs number of activities — the library's two dominant loops. *)
let scaling_tests =
  let open Bechamel in
  let depth_test =
    Test.make_indexed ~name:"s1: resolve by depth" ~args:[ 2; 4; 8; 16; 32 ]
      (fun d ->
        Staged.stage (fun () ->
            ignore
              (Naming.Resolver.resolve Fixtures.store Fixtures.ctx
                 (Fixtures.name_of_depth d))))
  in
  let big_newcastle n =
    let store = Naming.Store.create () in
    let t = Schemes.Newcastle.build ~machines:[ "u1"; "u2" ] store in
    let procs =
      List.init n (fun i ->
          Schemes.Newcastle.spawn_on
            ~label:(Printf.sprintf "p%d" i)
            t
            ~machine:(if i mod 2 = 0 then "u1" else "u2"))
    in
    let probes = Schemes.Newcastle.absolute_probes t ~machine:"u1" ~max_depth:4 in
    (store, Schemes.Newcastle.rule t, procs, probes)
  in
  let matrix_test =
    Test.make_indexed ~name:"s2: coherence matrix row by #activities"
      ~args:[ 2; 4; 8; 16 ]
      (fun n ->
        let store, rule, procs, probes = big_newcastle n in
        let occs = List.map Naming.Occurrence.generated procs in
        Staged.stage (fun () ->
            ignore (Naming.Coherence.measure store rule occs probes)))
  in
  let flow_test =
    Test.make_indexed ~name:"s3: flow analysis by plan size"
      ~args:[ 16; 64; 256 ]
      (fun n ->
        let plan = Fixtures.flow_plan_of_size n in
        Staged.stage (fun () -> ignore (Analysis.Flow.analyze plan)))
  in
  (* s4: a fixed probe path in stores of growing size — resolution cost
     should depend on path depth, not store population. *)
  let s4_world n =
    let st = Naming.Store.create () in
    let fs = Vfs.Fs.create st in
    ignore (Vfs.Fs.mkdir_path fs "/a/b/c/d");
    for i = 1 to n do
      ignore (Vfs.Fs.add_file fs (Printf.sprintf "/a/f%d" i) ~content:"x")
    done;
    (st, Vfs.Fs.root fs, Naming.Name.of_string "a/b/c/d")
  in
  let size_plain =
    Test.make_indexed ~name:"s4a: resolve by store size, plain"
      ~args:[ 64; 256; 1024; 4096 ] (fun n ->
        let st, root, name = s4_world n in
        Staged.stage (fun () -> ignore (Naming.Resolver.resolve_in st root name)))
  in
  [ depth_test; matrix_test; flow_test; size_plain ]

(* Measurement methodology (doc/PERF.md):
   1. a discarded warmup pass faults in the fixtures and warms caches;
   2. the measured pass stabilises the GC before each sample and grows
      batches geometrically from a minimum of 100 runs — single-run
      samples are dominated by clock granularity on the sub-microsecond
      series and used to drive their OLS r² negative;
   3. a series whose fit still has r² < 0.8 (scheduler noise on a busy
      machine) is re-measured with a doubled time budget, keeping the
      best fit per series, up to [max_attempts] passes. *)
let r2_target = 0.8
let max_attempts = 3

let run_bechamel ~name tests =
  let open Bechamel in
  let grouped = Test.make_grouped ~name tests in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let warmup_cfg =
    Benchmark.cfg ~limit:25 ~quota:(Time.second 0.05) ~stabilize:false ()
  in
  ignore (Benchmark.all warmup_cfg instances grouped);
  let measure_once ~quota =
    let cfg =
      Benchmark.cfg ~limit:1500 ~quota:(Time.second quota) ~stabilize:true
        ~sampling:(`Geometric 1.25) ~start:100 ()
    in
    let raw = Benchmark.all cfg instances grouped in
    let ols =
      Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    Hashtbl.fold
      (fun name est acc ->
        let time =
          match Analyze.OLS.estimates est with
          | Some [ t ] -> Some t
          | Some _ | None -> None
        in
        (name, time, Analyze.OLS.r_square est) :: acc)
      results []
  in
  let better (_, _, r2) (_, _, r2') =
    match (r2, r2') with
    | Some a, Some b -> a >= b
    | Some _, None -> true
    | None, _ -> false
  in
  let merge best rows =
    List.map
      (fun ((n, _, _) as row) ->
        match List.find_opt (fun (n', _, _) -> String.equal n n') best with
        | Some old when better old row -> old
        | Some _ | None -> row)
      rows
  in
  let all_fit rows =
    List.for_all
      (fun (_, _, r2) -> match r2 with Some r -> r >= r2_target | None -> false)
      rows
  in
  let rec attempt n quota best =
    let rows = merge best (measure_once ~quota) in
    if all_fit rows || n >= max_attempts then rows
    else attempt (n + 1) (quota *. 2.0) rows
  in
  let rows = attempt 1 1.0 [] in
  let rows = List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) rows in
  collected := !collected @ rows;
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
    rows

(* ------------------------------------------------------------------ *)
(* --json: machine-readable results, one file per day.                 *)

let today () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let write_json () =
  let path =
    match tag with
    | None -> Printf.sprintf "BENCH_%s.json" (today ())
    | Some t -> Printf.sprintf "BENCH_%s_%s.json" (today ()) t
  in
  let module J = Naming.Json in
  let int n = J.Int n and opt f = function Some v -> f v | None -> J.Null in
  let compiled =
    match !compiled_workload with
    | None -> []
    | Some (compile_ms, s) ->
        [
          ( "compiled_workload",
            J.Obj
              [
                ("compile_ms", J.fixed 3 compile_ms);
                ("nodes", int s.Naming.Compiled.nodes);
                ("slots", int s.Naming.Compiled.slots);
                ("table_cells", int s.Naming.Compiled.table_cells);
                ("bindings", int s.Naming.Compiled.bindings);
                ("node_builds", int s.Naming.Compiled.node_builds);
                ("patches", int s.Naming.Compiled.patches);
                ("patched_nodes", int s.Naming.Compiled.patched_nodes);
              ] );
        ]
  in
  let explore =
    match !explore_workload with
    | None -> []
    | Some (s, seconds) ->
        [
          ( "explore_workload",
            J.Obj
              [
                ("candidates", int s.Analysis.Explore.enumerated);
                ("interpreted", int s.Analysis.Explore.interpreted);
                ("pruned_por", int s.Analysis.Explore.pruned_por);
                ("pruned_symmetry", int s.Analysis.Explore.pruned_symmetry);
                ("replays", int s.Analysis.Explore.replays);
                ("exhausted", J.Bool s.Analysis.Explore.exhausted);
                ("seconds", J.fixed 3 seconds);
                ( "states_per_sec",
                  J.fixed 0
                    (float_of_int s.Analysis.Explore.interpreted
                    /. Float.max 1e-9 seconds) );
              ] );
        ]
  in
  let worlds =
    match !b18_rows with
    | [] -> []
    | rows ->
        let run r run =
          let est = run.b18_est in
          J.Obj
            [
              ("engine", J.String run.b18_engine);
              ("jobs", int run.b18_jobs);
              ("degree", J.fixed 6 est.Naming.Coherence.degree);
              ("ci_low", J.fixed 6 est.Naming.Coherence.ci_low);
              ("ci_high", J.fixed 6 est.Naming.Coherence.ci_high);
              ("samples", int est.Naming.Coherence.samples);
              ("seconds", J.fixed 4 run.b18_seconds);
              ( "speedup",
                J.fixed 1 (r.b18_exact_s /. Float.max 1e-9 run.b18_seconds) );
            ]
        in
        [
          ( "worlds_workload",
            J.List
              (List.map
                 (fun r ->
                   J.Obj
                     [
                       ("size", int r.b18_size);
                       ("build_s", J.fixed 3 r.b18_build_s);
                       ("enumerate_s", J.fixed 3 r.b18_enumerate_s);
                       ("probes", int r.b18_probes);
                       ("exact_degree", J.fixed 6 r.b18_exact_degree);
                       ("exact_s", J.fixed 3 r.b18_exact_s);
                       ("runs", J.List (List.map (run r) r.b18_runs));
                     ])
                 rows) );
        ]
  in
  let modes =
    match !b20_rows with
    | [] -> []
    | rows ->
        [
          ( "modes_workload",
            J.List
              (List.map
                 (fun r ->
                   J.Obj
                     [
                       ("scenario", J.String r.b20_scenario);
                       ("mode", J.String r.b20_mode);
                       ("degree_min", J.fixed 6 r.b20_degree_min);
                       ("degree_final", J.fixed 6 r.b20_degree_final);
                       ("sent", int r.b20_sent);
                       ("committed", int r.b20_committed);
                       ("availability", J.fixed 4 r.b20_avail);
                       ("latency_mean", J.fixed 4 r.b20_lat_mean);
                       ("latency_max", J.fixed 4 r.b20_lat_max);
                       ("converged", J.Bool r.b20_converged);
                       ("converge_time", opt (J.fixed 1) r.b20_converge);
                       ("rounds_to_converge", opt int r.b20_rounds);
                       ("lost", int r.b20_lost);
                       ("lww_losses", int r.b20_lww_losses);
                       ("unknown", int r.b20_unknown);
                       ("elections", int r.b20_elections);
                     ])
                 rows) );
        ]
  in
  let results =
    List.map
      (fun (name, time, r2) ->
        J.Obj
          [
            ("name", J.String name);
            ("ns_per_run", opt (J.fixed 1) time);
            ("r_square", opt (J.fixed 4) r2);
          ])
      !collected
  in
  let oc = open_out path in
  output_string oc
    (J.to_string_pretty
       (J.Obj
          ([
             ("date", J.String (today ()));
             ("seed", int seed);
             ("jobs", int jobs);
           ]
          @ compiled @ explore @ worlds @ modes
          @ [ ("results", J.List results) ])));
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let run_experiments ppf = Harness.Experiments.run_all ppf

let () =
  let ppf = Format.std_formatter in
  (match positional with
  | "micro" :: _ -> run_bechamel ~name:"micro" micro_tests
  | "scaling" :: _ -> run_bechamel ~name:"scaling" scaling_tests
  | "chaos" :: _ -> run_bechamel ~name:"chaos" chaos_tests
  | "cluster" :: _ -> run_bechamel ~name:"cluster" cluster_tests
  | "compiled" :: _ ->
      run_bechamel ~name:"compiled" compiled_tests;
      report_compiled_workload ()
  | "explore" :: _ ->
      run_bechamel ~name:"explore" explore_tests;
      report_explore_workload ()
  | "worlds" :: _ -> run_worlds ()
  | "modes" :: _ -> run_modes ()
  | "exps" :: _ -> run_experiments ppf
  | id :: _ when Harness.Experiments.find id <> None -> (
      match Harness.Experiments.find id with
      | Some e -> Harness.Experiments.run_one ppf e
      | None -> assert false)
  | [] ->
      run_experiments ppf;
      Format.fprintf ppf "@\n%s@\nBechamel benchmarks (one per reproduced artefact + primitives)@\n%s@\n@."
        (String.make 72 '=') (String.make 72 '=');
      run_bechamel ~name:"bench" (micro_tests @ experiment_tests)
  | unknown :: _ ->
      Printf.eprintf
        "unknown argument %S (expected: micro | scaling | chaos | cluster | \
         compiled | explore | worlds | modes | exps | e1..e10 | a1..a4)\n"
        unknown;
      exit 2);
  if json_mode then write_json ()
