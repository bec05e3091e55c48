(* namingctl — command-line interface to the coherent-naming library.

   Subcommands:
     list               list the reproduced experiments
     exp <id|all>       run one experiment (e1..e10, a1..a4) or all of them
     report             run everything, emit a markdown report
     dump <scheme|all>  serialise a sample world (Naming.Codec v1)
     lint <scheme|all>  well-formedness report for a sample world
     analyze <scheme|all>
                        multi-pass static analysis of a sample world
                        (--json, --sarif, --min-severity, nonzero exit on
                        errors)
     check-script <file|sample|all>
                        static name-flow analysis of a script/flow plan
                        (--json, --sarif, --min-severity, --received-rule,
                        --embedded-rule; nonzero exit on errors)
     check-cluster <scheme|all>
                        static replication coherence analysis of a sample
                        world's cluster deployment: NG2xx diagnostics from
                        abstract interpretation of the fault schedule, no
                        simulator execution (--json, --sarif,
                        --min-severity, --seed, --drop, --partition,
                        --replicas, --mode lww|leader, --partition-leader,
                        --leader-kill; nonzero exit on errors)
     coherence <scheme> <name>
                        per-activity resolution and coherence verdict
     diff <scheme>      bucketed namespace diff of two activities
     dot <scheme>       print the naming graph of a sample world (graphviz)
     trace <scheme> <name>
                        resolve a name in a sample world and print the
                        resolution path
     chaos <scheme|all>
                        run a replicated name service built from a sample
                        world through a fault schedule and report coherence
                        under failure (--seed, --drop, --partition,
                        --replicas, --mode lww|leader, --partition-leader,
                        --leader-kill, --json, --schedule FILE to replay
                        an explicit witness schedule verbatim; nonzero
                        exit when the replicas fail to reconverge)
     explore <scheme|all>
                        adversarial schedule exploration: bounded model
                        checking over the cluster's fault-schedule space,
                        synthesizing minimized replayable witnesses (NG3xx
                        diagnostics; --depth, --max-writes, --budget,
                        --seed, --replicas, --mode lww|leader, --json,
                        --sarif, --min-severity, --witness-dir, --jobs;
                        nonzero exit on errors)
     worldgen <template>
                        generate a large seeded world (unixlike,
                        perprocess, federated) and stream its Codec v1
                        dump to stdout or --out FILE (--size, --seed;
                        deterministic: same template/size/seed, same
                        bytes)
     estimate <scheme|world-file>
                        sampling-based coherence estimation: draw seeded
                        probes until the Wilson interval is tight enough
                        (--confidence, --epsilon, --max-samples, --seed,
                        --jobs, --json; nonzero exit when the interval
                        stays wider than epsilon)

   analyze, check-script, check-cluster, explore, chaos and compile-stats
   take --jobs N (default from NAMING_JOBS, else 1) to fan their sweeps
   across N domains; output is printed sequentially in input order
   regardless of jobs. *)

let sample_schemes = Harness.Sample.schemes

(* A small world (two activities in the positions the scheme makes
   interesting) for [dot], [dump], [trace], [coherence] and [analyze]. *)
let sample_world scheme =
  match Harness.Sample.world scheme with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown scheme %S (expected one of: %s)\n" scheme
        (String.concat ", " sample_schemes);
      exit 2

let cmd_list () =
  List.iter
    (fun e ->
      Printf.printf "%-4s %-24s %s\n" e.Harness.Experiments.id
        e.Harness.Experiments.paper_artefact e.Harness.Experiments.title)
    Harness.Experiments.all;
  0

let cmd_exp id =
  let ppf = Format.std_formatter in
  if String.equal (String.lowercase_ascii id) "all" then begin
    Harness.Experiments.run_all ppf;
    0
  end
  else
    match Harness.Experiments.find id with
    | Some e ->
        Harness.Experiments.run_one ppf e;
        0
    | None ->
        Printf.eprintf "unknown experiment %S; try 'namingctl list'\n" id;
        2

let cmd_dot scheme =
  let w = sample_world scheme in
  print_string (Naming.Graph.to_dot w.store);
  0

let cmd_report () =
  print_string (Harness.Report.generate ());
  0

(* The schemes a scheme argument names: every sample scheme for "all",
   else the argument itself. *)
let schemes_of arg =
  if String.equal (String.lowercase_ascii arg) "all" then sample_schemes
  else [ arg ]

(* Runs [f] on each scheme [arg] names; the combined exit code is the
   max of the per-scheme codes. *)
let on_schemes arg f =
  List.fold_left (fun acc s -> max acc (f s)) 0 (schemes_of arg)

(* The fault schedule chaos and check-cluster build from their flags. *)
let chaos_config ~seed ~drop ~partition ~replicas ~mode ~partition_leader
    ~leader_kill =
  {
    Dsim.Chaos.default with
    Dsim.Chaos.seed;
    drop;
    duplicate = drop;
    partition_for = partition;
    replicas;
    mode;
    partition_leader;
    leader_kill_for = leader_kill;
  }

let cmd_dump scheme =
  on_schemes scheme (fun scheme ->
      let w = sample_world scheme in
      print_string (Naming.Codec.to_string w.store);
      0)

let cmd_lint scheme =
  on_schemes scheme (fun scheme ->
      let w = sample_world scheme in
      let report = Naming.Lint.check w.store in
      Format.printf "%s: %a@." scheme (Naming.Lint.pp_report w.store) report;
      if report.Naming.Lint.violations = [] then 0 else 1)

let cmd_trace scheme name =
  let w = sample_world scheme in
  match Naming.Name.of_string name with
  | exception Naming.Name.Invalid msg ->
      Printf.eprintf "invalid name: %s\n" msg;
      2
  | n ->
      let result, trace = Naming.Resolver.resolve_trace w.store w.ctx n in
      Format.printf "%a@." (Naming.Resolver.pp_trace w.store) trace;
      Format.printf "%s resolves to %a@." name (Naming.Store.pp_entity w.store)
        result;
      if Naming.Entity.is_undefined result then 1 else 0

let probes_of_world = Harness.Sample.probes

let cmd_diff scheme =
  let w = sample_world scheme in
  match w.activities with
  | a :: b :: _ ->
      let d = Harness.Diff.diff w.store w.rule ~a ~b ~probes:(probes_of_world w) in
      Format.printf "%a@." (Harness.Diff.pp w.store) d;
      Format.printf "coherent fraction: %.3f@." (Harness.Diff.coherent_fraction d);
      0
  | _ ->
      prerr_endline "sample world has fewer than two activities";
      2

let cmd_coherence scheme name =
  let w = sample_world scheme in
  match Naming.Name.of_string name with
  | exception Naming.Name.Invalid msg ->
      Printf.eprintf "invalid name: %s\n" msg;
      2
  | n ->
      let occs = List.map Naming.Occurrence.generated w.activities in
      List.iter
        (fun a ->
          let e =
            Naming.Rule.resolve w.rule w.store (Naming.Occurrence.generated a)
              n
          in
          Format.printf "  %a resolves it to %a@."
            (Naming.Store.pp_entity w.store)
            a
            (Naming.Store.pp_entity w.store)
            e)
        w.activities;
      let verdict = Naming.Coherence.check w.store w.rule occs n in
      Format.printf "verdict: %a@." Naming.Coherence.pp_verdict verdict;
      (match verdict with
      | Naming.Coherence.Coherent _ | Naming.Coherence.Weakly_coherent _ -> 0
      | Naming.Coherence.Incoherent _ | Naming.Coherence.Vacuous -> 1)

(* Reports each sample world's own compiled engine: the cost of
   building every table, then the tables a coherence sweep built
   (built/total, since tables are built on first use) and the
   incremental patching behaviour — a binding burst between two sweeps
   must arrive as a patch round on the same engine, never a second
   one. *)
let cmd_compile_stats scheme jobs =
  on_schemes scheme (fun scheme ->
      let w = sample_world scheme in
      let reps = 50 in
      let t0 = Sys.time () in
      for _ = 1 to reps do
        ignore (Naming.Compiled.compile w.store)
      done;
      let compile_ms = (Sys.time () -. t0) *. 1000.0 /. float_of_int reps in
      let compiled = Naming.Compiled.of_store w.store in
      let engine = Naming.Engine.Compiled compiled in
      let occs = List.map Naming.Occurrence.generated w.activities in
      let probes = probes_of_world w in
      ignore (Naming.Coherence.measure ~engine ~jobs w.store w.rule occs probes);
      let scratch =
        Naming.Store.create_context_object ~label:"scratch" w.store
      in
      (match List.rev (Naming.Store.context_objects w.store) with
      | dir :: _ ->
          Naming.Store.bind w.store ~dir (Naming.Name.atom "scratch") scratch
      | [] -> ());
      ignore (Naming.Coherence.measure ~engine ~jobs w.store w.rule occs probes);
      let s = Naming.Compiled.stats compiled in
      Printf.printf
        "%s: %d probes x %d activities, 2 sweeps, 1 binding burst in between\n"
        scheme (List.length probes) (List.length w.activities);
      Printf.printf "  compile=%.3fms %s\n" compile_ms
        (Format.asprintf "%a" Naming.Compiled.pp_stats s);
      if Naming.Compiled.of_store w.store == compiled && s.patches > 0 then 0
      else begin
        Printf.eprintf "  binding burst not patched into the store's engine\n";
        1
      end)

(* Parses --mode, or prints the usage error and exits 2; chaos,
   check-cluster and explore all route through this. *)
let with_mode s f =
  match Dsim.Chaos.mode_of_string s with
  | None ->
      Printf.eprintf "invalid --mode %S (expected lww or leader)\n" s;
      2
  | Some mode -> f mode

(* Checks --drop, or prints the usage error and exits 2; chaos and
   check-cluster route through this. NaN fails both comparisons. *)
let with_drop drop f =
  if drop >= 0.0 && drop <= 1.0 then f drop
  else begin
    Printf.eprintf "invalid --drop %g (expected a probability in [0, 1])\n"
      drop;
    2
  end

(* Builds a replicated name service from a sample world's tree, runs one
   chaos schedule over it and reports coherence under failure. Exit code
   1 when the replicas fail to reconverge after the faults heal.
   [--schedule FILE] replays an explicit schedule (the witness format
   the explorer emits) verbatim; it takes precedence over the --seed,
   --drop, --partition, --replicas, --mode and leader-fault knobs. *)
let cmd_chaos scheme seed drop partition replicas mode partition_leader
    leader_kill json jobs schedule_file =
  with_mode mode @@ fun mode ->
  with_drop drop @@ fun drop ->
  let schedule =
    match schedule_file with
    | None -> Ok None
    | Some file -> (
        match
          let ic = open_in_bin file in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Dsim.Chaos.schedule_of_json text
        with
        | Ok s -> Ok (Some s)
        | Error m -> Error (Printf.sprintf "%s: %s" file m)
        | exception Sys_error m -> Error m)
  in
  match schedule with
  | Error m ->
      Printf.eprintf "invalid --schedule: %s\n" m;
      2
  | Ok schedule ->
  let config =
    chaos_config ~seed ~drop ~partition ~replicas ~mode ~partition_leader
      ~leader_kill
  in
  let results =
    List.map
      (fun scheme ->
        let w = sample_world scheme in
        let spec = Dsim.Nameserver.spec_of_context w.store w.ctx in
        let probes =
          spec.Dsim.Nameserver.dirs
          @ List.map fst spec.Dsim.Nameserver.links
        in
        match schedule with
        | Some s -> (scheme, Dsim.Chaos.run_schedule ~jobs ~spec ~probes s)
        | None -> (scheme, Dsim.Chaos.run ~jobs ~config ~spec ~probes ()))
      (schemes_of scheme)
  in
  (match (json, results) with
  | true, [ (scheme, r) ] -> print_endline (Dsim.Chaos.to_json ~scheme r)
  | true, _ ->
      print_endline
        (Naming.Json.to_string_pretty
           (Naming.Json.Obj
              [
                ( "schemes",
                  Naming.Json.List
                    (List.map
                       (fun (scheme, r) -> Dsim.Chaos.report_json ~scheme r)
                       results) );
              ]))
  | false, _ ->
      List.iter
        (fun (scheme, r) ->
          Format.printf "%a@." (Dsim.Chaos.pp_summary ~scheme) r)
        results);
  if List.for_all (fun (_, r) -> r.Dsim.Chaos.converged) results then 0 else 1

(* Parses --min-severity, or prints the usage error and exits 2; every
   report command routes through this, so the rejection message is
   uniform. *)
let with_min_severity s f =
  match Analysis.Diagnostic.severity_of_string s with
  | None ->
      Printf.eprintf
        "invalid --min-severity %S (expected info, warning or error)\n" s;
      2
  | Some min_severity -> f min_severity

(* The shared --json/--sarif reporting tail of analyze, check-script and
   check-cluster: renders the analyzed targets — (store, uri, line_of,
   report), in input order — in the requested format and returns the
   CI gate exit code (nonzero iff any report has error-severity
   diagnostics, independent of the display filter). [plural] keys the
   multi-target JSON document ("schemes", "scripts"). *)
let emit_reports ~json ~sarif ~plural targets =
  if sarif then
    print_endline
      (Naming.Json.to_string_pretty
         (Analysis.Sarif.render
            (List.map
               (fun (_store, uri, line_of, r) ->
                 Analysis.Sarif.of_report ?uri ~line_of r)
               targets)))
  else if json then (
    match targets with
    | [ (store, _, _, r) ] ->
        print_endline
          (Naming.Json.to_string_pretty (Analysis.Engine.to_json store r))
    | _ ->
        print_endline
          (Naming.Json.to_string_pretty
             (Naming.Json.Obj
                [
                  ( plural,
                    Naming.Json.List
                      (List.map
                         (fun (store, _, _, r) ->
                           Analysis.Engine.to_json store r)
                         targets) );
                ])))
  else
    List.iter
      (fun (store, _, _, r) ->
        Format.printf "%a@." (Analysis.Engine.pp store) r)
      targets;
  Analysis.Engine.exit_code (List.map (fun (_, _, _, r) -> r) targets)

let no_line : int -> int option = fun _ -> None

let cmd_analyze scheme json sarif min_severity jobs =
  with_min_severity min_severity @@ fun min_severity ->
  let config = { Analysis.Engine.default_config with min_severity } in
  let subjects =
    List.map
      (fun scheme ->
        let w = sample_world scheme in
        let subject =
          Analysis.Subject.v ~probes:(probes_of_world w) ~rule:w.rule
            ~activities:w.activities w.store
        in
        (scheme, w.store, subject))
      (schemes_of scheme)
  in
  let reports =
    Analysis.Engine.analyze_many ~config ~jobs
      (List.map (fun (label, _, subject) -> (label, subject)) subjects)
  in
  emit_reports ~json ~sarif ~plural:"schemes"
    (List.map2
       (fun (_, store, _) r -> (store, None, no_line, r))
       subjects reports)

(* A check-script target: a script file (takes precedence), a sample
   plan name, or 'all' (every sample plan). *)
let script_targets arg =
  if Sys.file_exists arg then begin
    let ic = open_in_bin arg in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Analysis.Flow.parse text with
    | Error msg ->
        Printf.eprintf "%s: %s\n" arg msg;
        Error 2
    | Ok (plan, lines) ->
        let line_of i =
          if i >= 0 && i < Array.length lines then Some lines.(i) else None
        in
        Ok [ (Filename.basename arg, plan, Some arg, line_of) ]
  end
  else
    let sample name =
      match Harness.Sample.script name with
      | Some plan -> Ok [ (name, plan, None, fun _ -> None) ]
      | None ->
          Printf.eprintf
            "unknown script %S (expected a file, one of: %s; or 'all')\n" name
            (String.concat ", " Harness.Sample.scripts);
          Error 2
    in
    if String.equal (String.lowercase_ascii arg) "all" then
      List.fold_left
        (fun acc name ->
          Result.bind acc (fun ts -> Result.map (( @ ) ts) (sample name)))
        (Ok []) Harness.Sample.scripts
    else sample arg

let cmd_check_script target json sarif min_severity received embedded jobs =
  with_min_severity min_severity @@ fun min_severity ->
  let received_rule =
    match received with
    | "receiver" -> Some `Receiver
    | "sender" -> Some `Sender
    | _ -> None
  in
  let embedded_rule =
    match embedded with
    | "reader" -> Some `Reader
    | "source" -> Some `Source
    | _ -> None
  in
  match (received_rule, embedded_rule) with
  | None, _ ->
      Printf.eprintf
        "invalid received-rule %S (expected receiver or sender)\n" received;
      2
  | _, None ->
      Printf.eprintf "invalid embedded-rule %S (expected reader or source)\n"
        embedded;
      2
  | Some received_rule, Some embedded_rule -> (
      match script_targets target with
      | Error code -> code
      | Ok targets ->
          let config =
            { Analysis.Flow.default_config with received_rule; embedded_rule }
          in
          let results =
            Analysis.Flowpasses.report_many ~min_severity ~config ~jobs
              (List.map (fun (label, plan, _, _) -> (label, plan)) targets)
          in
          let checked =
            List.map2
              (fun (_, _, uri, line_of) (_result, report) ->
                (uri, line_of, report))
              targets results
          in
          (* Flow diagnostics carry no store entities; any store renders
             them. *)
          let store = Naming.Store.create () in
          emit_reports ~json ~sarif ~plural:"scripts"
            (List.map
               (fun (uri, line_of, r) -> (store, uri, line_of, r))
               checked))

(* Statically analyzes the replicated deployment of a sample world's
   tree: same cluster spec and fault schedule as [cmd_chaos], but the
   NG2xx diagnostics come from abstract interpretation — no simulator
   execution. Exit code 1 on any error-severity diagnostic, for CI. *)
let cmd_check_cluster scheme json sarif min_severity seed drop partition
    replicas mode partition_leader leader_kill jobs =
  with_min_severity min_severity @@ fun min_severity ->
  with_mode mode @@ fun mode ->
  with_drop drop @@ fun drop ->
  let config =
    chaos_config ~seed ~drop ~partition ~replicas ~mode ~partition_leader
      ~leader_kill
  in
  let subjects =
    List.map
      (fun scheme ->
        let w = sample_world scheme in
        let spec = Dsim.Nameserver.spec_of_context w.store w.ctx in
        (scheme, w.store, Analysis.Replpasses.subject config spec))
      (schemes_of scheme)
  in
  let results =
    Analysis.Replpasses.report_many ~min_severity ~jobs
      (List.map (fun (label, _, subject) -> (label, subject)) subjects)
  in
  emit_reports ~json ~sarif ~plural:"schemes"
    (List.map2
       (fun (_, store, _) (_state, r) -> (store, None, no_line, r))
       subjects results)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Adversarial schedule exploration over a sample world's cluster
   deployment: bounded model checking of the fault-schedule space with
   minimized, replayable witnesses (NG3xx). [--witness-dir DIR] writes
   each witness's minimized schedule (<scheme>-<code>-<i>.schedule.json,
   the format [chaos --schedule] replays) next to the chaos JSON report
   of its confirming replay (<scheme>-<code>-<i>.replay.json), so CI can
   verify the reproduction byte for byte. Exit code 1 on any
   error-severity diagnostic. *)
let cmd_explore scheme json sarif min_severity depth max_writes budget seed
    replicas mode jobs witness_dir =
  with_min_severity min_severity @@ fun min_severity ->
  with_mode mode @@ fun mode ->
  let config =
    {
      Analysis.Explore.default with
      Analysis.Explore.base =
        {
          Analysis.Explore.default.Analysis.Explore.base with
          Dsim.Chaos.replicas;
          mode;
        };
      depth;
      max_writes;
      budget;
      seed;
    }
  in
  let subjects =
    List.map
      (fun scheme ->
        let w = sample_world scheme in
        let spec = Dsim.Nameserver.spec_of_context w.store w.ctx in
        (scheme, w.store, Analysis.Explorepasses.subject ~config spec))
      (schemes_of scheme)
  in
  let results =
    Analysis.Explorepasses.report_many ~min_severity ~jobs
      (List.map (fun (label, _, subject) -> (label, subject)) subjects)
  in
  (match witness_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter2
        (fun (scheme, _, _) ((outcome : Analysis.Explore.outcome), _) ->
          List.iteri
            (fun i (w : Analysis.Explore.witness) ->
              let base =
                Printf.sprintf "%s-%s-%d" scheme w.Analysis.Explore.code i
              in
              write_file
                (Filename.concat dir (base ^ ".schedule.json"))
                (Dsim.Chaos.schedule_to_json w.Analysis.Explore.schedule);
              write_file
                (Filename.concat dir (base ^ ".replay.json"))
                (Dsim.Chaos.to_json ~scheme w.Analysis.Explore.replay ^ "\n"))
            outcome.Analysis.Explore.witnesses)
        subjects results);
  emit_reports ~json ~sarif ~plural:"schemes"
    (List.map2
       (fun (_, store, _) (_outcome, r) -> (store, None, no_line, r))
       subjects results)

(* Generates a seeded world and streams its codec dump, never holding
   the dump text in memory: a million-entity world goes straight from
   the builder to the channel. *)
let cmd_worldgen template size seed out =
  match Harness.Worldgen.template_of_string template with
  | None ->
      Printf.eprintf "unknown template %S (expected one of: %s)\n" template
        (String.concat ", " Harness.Worldgen.templates);
      2
  | Some t -> (
      match Harness.Worldgen.build t ~size ~seed with
      | exception Invalid_argument msg ->
          Printf.eprintf "%s\n" msg;
          2
      | w -> (
          match out with
          | None ->
              Naming.Codec.encode_to_channel w.store stdout;
              flush stdout;
              0
          | Some file ->
              let oc = open_out_bin file in
              Naming.Codec.encode_to_channel w.store oc;
              close_out oc;
              0))

(* An estimate target: a world file in codec format (takes precedence;
   reconstructed via the Process_env label convention) or a sample
   scheme name. *)
let estimate_world target =
  if Sys.file_exists target then begin
    let ic = open_in_bin target in
    let decoded = Naming.Codec.decode_from_channel ic in
    close_in ic;
    match decoded with
    | Error e ->
        Error
          (Printf.sprintf "%s:%d: %s" target e.Naming.Codec.line
             e.Naming.Codec.message)
    | Ok store -> (
        match Harness.Worldgen.of_store store with
        | Some w -> Ok w
        | None ->
            Error
              (Printf.sprintf
                 "%s: no measurable world in dump (activities and their \
                  context objects must carry the p<i>/p<i>.ctx labels)"
                 target))
  end
  else
    match Harness.Sample.world target with
    | Some w -> Ok w
    | None ->
        Error
          (Printf.sprintf
             "unknown scheme or file %S (expected a codec dump file or one \
              of: %s)"
             target
             (String.concat ", " sample_schemes))

(* Sampling-based coherence estimation over a sample scheme or a dumped
   world. The probe stream is fixed by --seed alone (batches drawn from
   split child streams), so the printed report is byte-identical across
   --jobs values and engines — CI diffs it. Exit code 1 when the
   confidence interval never reached the requested half-width. *)
let cmd_estimate target confidence epsilon max_samples seed jobs json =
  match estimate_world target with
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      2
  | Ok w -> (
      let occs = List.map Naming.Occurrence.generated w.activities in
      let rng = Dsim.Rng.create seed in
      let sampler = Harness.Worldgen.sampler w in
      match
        Naming.Coherence.estimate ~jobs ~confidence ~epsilon
          ~max_samples ~rng w.store w.rule occs sampler
      with
      | exception Invalid_argument msg ->
          Printf.eprintf "%s\n" msg;
          2
      | est ->
          let open Naming.Coherence in
          let half = (est.ci_high -. est.ci_low) /. 2.0 in
          if json then
            let f = Naming.Json.fixed 6 in
            print_endline
              (Naming.Json.to_string_pretty
                 (Naming.Json.Obj
                    [
                      ("target", Naming.Json.String target);
                      ("degree", f est.degree);
                      ("strict_degree", f est.strict_degree);
                      ("ci_low", f est.ci_low);
                      ("ci_high", f est.ci_high);
                      ("samples", Naming.Json.Int est.samples);
                      ("confidence", f confidence);
                      ("epsilon", f epsilon);
                      ("converged", Naming.Json.Bool (half <= epsilon));
                    ]))
          else
            Format.printf "%s: %a@." target pp_estimate est;
          if half <= epsilon then 0 else 1)

open Cmdliner

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the reproduced experiments")
    Term.(const cmd_list $ const ())

let exp_cmd =
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID"
           ~doc:"Experiment id (e1..e10) or 'all'")
  in
  Cmd.v (Cmd.info "exp" ~doc:"Run an experiment") Term.(const cmd_exp $ id)

let scheme_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCHEME"
         ~doc:(Printf.sprintf "One of: %s" (String.concat ", " sample_schemes)))

let scheme_or_all_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCHEME"
         ~doc:(Printf.sprintf "One of: %s; or 'all'"
                 (String.concat ", " sample_schemes)))

let dot_cmd =
  Cmd.v
    (Cmd.info "dot" ~doc:"Print a sample world's naming graph (graphviz)")
    Term.(const cmd_dot $ scheme_arg)

let dump_cmd =
  Cmd.v
    (Cmd.info "dump" ~doc:"Serialise a sample world's store (Codec v1 format)")
    Term.(const cmd_dump $ scheme_or_all_arg)

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON")

let sarif_flag =
  Arg.(value & flag
       & info [ "sarif" ]
           ~doc:"Emit the report as SARIF 2.1.0 (for code scanning); \
                 takes precedence over --json")

let min_severity_opt =
  Arg.(value & opt string "info"
       & info [ "min-severity" ] ~docv:"SEV"
           ~doc:"Report only diagnostics at least this severe: info, \
                 warning or error. The exit code always reflects errors.")

let jobs_opt =
  Arg.(value & opt int (Naming.Pool.default_jobs ())
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Evaluate the sweeps on $(docv) domains (defaults to \
                 NAMING_JOBS when set, else 1 = fully sequential). \
                 Results and output order do not depend on $(docv).")

(* The fault-schedule knobs, shared between [chaos] (which executes the
   schedule) and [check-cluster] (which interprets it abstractly). *)
let seed_opt =
  Arg.(value & opt int Dsim.Chaos.default.Dsim.Chaos.seed
       & info [ "seed" ] ~docv:"SEED"
           ~doc:"Chaos schedule seed. The same seed reproduces the \
                 schedule (and the chaos run sample for sample).")

let drop_opt =
  Arg.(value & opt float Dsim.Chaos.default.Dsim.Chaos.drop
       & info [ "drop" ] ~docv:"P"
           ~doc:"Per-message loss (and duplication) probability, in \
                 [0, 1].")

let partition_opt =
  Arg.(value & opt float Dsim.Chaos.default.Dsim.Chaos.partition_for
       & info [ "partition" ] ~docv:"SECONDS"
           ~doc:"Length of the network partition window (0 disables \
                 the partition).")

let replicas_opt =
  Arg.(value & opt int Dsim.Chaos.default.Dsim.Chaos.replicas
       & info [ "replicas" ] ~docv:"N" ~doc:"Name-server replicas.")

let mode_opt =
  Arg.(value & opt string "lww"
       & info [ "mode" ] ~docv:"MODE"
           ~doc:"Consistency tier: 'lww' (last-writer-wins replicas \
                 reconciled by anti-entropy) or 'leader' \
                 (leader-replicated log with quorum commit and atomic \
                 multi-name transactions).")

let partition_leader_flag =
  Arg.(value & flag
       & info [ "partition-leader" ]
           ~doc:"Leader mode only: instead of static halves, the \
                 partition cuts whoever leads at partition time (plus \
                 its client) off alone — the minority-leader deposition \
                 scenario.")

let leader_kill_opt =
  Arg.(value & opt float Dsim.Chaos.default.Dsim.Chaos.leader_kill_for
       & info [ "leader-kill" ] ~docv:"SECONDS"
           ~doc:"Leader mode only: downtime of whoever leads at the \
                 kill instant (0 disables the targeted fault).")

let schedule_opt =
  Arg.(value & opt (some string) None
       & info [ "schedule" ] ~docv:"FILE"
           ~doc:"Replay this explicit schedule file (the explorer's \
                 witness format) verbatim; takes precedence over \
                 --seed, --drop, --partition, --replicas, --mode and \
                 the leader-fault knobs.")

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run a replicated name service built from a sample world \
             through a fault schedule (message loss, a partition window, \
             a replica crash/restart, targeted leader faults) in either \
             consistency tier and report coherence over time; exits \
             nonzero when the replicas fail to reconverge")
    Term.(const cmd_chaos $ scheme_or_all_arg $ seed_opt $ drop_opt
          $ partition_opt $ replicas_opt $ mode_opt
          $ partition_leader_flag $ leader_kill_opt $ json_flag $ jobs_opt
          $ schedule_opt)

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Multi-pass static analysis of a sample world's naming graph; \
             exits nonzero when any error-severity diagnostic fires")
    Term.(const cmd_analyze $ scheme_or_all_arg $ json_flag $ sarif_flag
          $ min_severity_opt $ jobs_opt)

let check_script_cmd =
  let target =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCRIPT"
           ~doc:(Printf.sprintf
                   "A script file, or one of the sample plans: %s; or 'all'"
                   (String.concat ", " Harness.Sample.scripts)))
  in
  let received_rule =
    Arg.(value & opt string "receiver"
         & info [ "received-rule" ] ~docv:"RULE"
             ~doc:"Context for received names: 'receiver' (the common OS \
                   closure) or 'sender' (remap with the message).")
  in
  let embedded_rule =
    Arg.(value & opt string "reader"
         & info [ "embedded-rule" ] ~docv:"RULE"
             ~doc:"Context for embedded names: 'reader' or 'source' (the \
                   object's own scope).")
  in
  Cmd.v
    (Cmd.info "check-script"
       ~doc:"Static name-flow analysis of a script: classify every \
             use/send/read flow as coherent, incoherent or unknown \
             without running it; exits nonzero when any flow is provably \
             incoherent")
    Term.(const cmd_check_script $ target $ json_flag $ sarif_flag
          $ min_severity_opt $ received_rule $ embedded_rule $ jobs_opt)

let check_cluster_cmd =
  Cmd.v
    (Cmd.info "check-cluster"
       ~doc:"Static replication coherence analysis of a sample world's \
             cluster deployment: interpret the fault schedule abstractly \
             and report NG2xx diagnostics (under lww: lost-update races, \
             unreachable replicas, staleness, durability holes; under \
             leader: provable no-quorum windows and unknown-outcome \
             horizons) without executing the simulator; exits nonzero on \
             any error-severity diagnostic")
    Term.(const cmd_check_cluster $ scheme_or_all_arg $ json_flag
          $ sarif_flag $ min_severity_opt $ seed_opt $ drop_opt
          $ partition_opt $ replicas_opt $ mode_opt
          $ partition_leader_flag $ leader_kill_opt $ jobs_opt)

let explore_cmd =
  let depth_opt =
    Arg.(value & opt int Analysis.Explore.default.Analysis.Explore.depth
         & info [ "depth" ] ~docv:"N"
             ~doc:"Candidate fault-window start boundaries (anti-entropy \
                   ticks) to explore.")
  in
  let max_writes_opt =
    Arg.(value & opt int Analysis.Explore.default.Analysis.Explore.max_writes
         & info [ "max-writes" ] ~docv:"N"
             ~doc:"Writes per candidate schedule, at most.")
  in
  let budget_opt =
    Arg.(value & opt int Analysis.Explore.default.Analysis.Explore.budget
         & info [ "budget" ] ~docv:"N"
             ~doc:"Candidate schedules enumerated at most.")
  in
  let witness_dir_opt =
    Arg.(value & opt (some string) None
         & info [ "witness-dir" ] ~docv:"DIR"
             ~doc:"Write each witness's minimized schedule \
                   (*.schedule.json, replayable with chaos --schedule) \
                   and the chaos JSON report of its confirming replay \
                   (*.replay.json) into $(docv).")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Adversarially explore the fault-schedule space of a sample \
             world's cluster deployment (bounded model checking with \
             partial-order and symmetry reduction) and report NG3xx \
             diagnostics, each backed by a minimized schedule witness \
             that 'chaos --schedule' replays verbatim; with --mode \
             leader the synthesized loss schedules replay against the \
             leader tier and are discharged unless a commit is actually \
             lost; exits nonzero on any error-severity diagnostic")
    Term.(const cmd_explore $ scheme_or_all_arg $ json_flag $ sarif_flag
          $ min_severity_opt $ depth_opt $ max_writes_opt $ budget_opt
          $ seed_opt $ replicas_opt $ mode_opt $ jobs_opt
          $ witness_dir_opt)

let worldgen_cmd =
  let template =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TEMPLATE"
           ~doc:(Printf.sprintf "One of: %s"
                   (String.concat ", " Harness.Worldgen.templates)))
  in
  let size =
    Arg.(value & opt int 10_000
         & info [ "size" ] ~docv:"N"
             ~doc:"Entities in the generated store (at least 64).")
  in
  let seed =
    Arg.(value & opt int64 42L
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Generator seed. The same template, size and seed \
                   rebuild the identical world, bind for bind.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Write the dump to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "worldgen"
       ~doc:"Generate a large seeded world from a template (zipf-shaped \
             directory fan-out, scaled to --size entities) and stream \
             its Codec v1 dump without materialising it")
    Term.(const cmd_worldgen $ template $ size $ seed $ out)

let estimate_cmd =
  let target =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORLD"
           ~doc:(Printf.sprintf
                   "A Codec v1 world file (e.g. from worldgen), or one \
                    of: %s"
                   (String.concat ", " sample_schemes)))
  in
  let confidence =
    Arg.(value & opt float 0.95
         & info [ "confidence" ] ~docv:"C"
             ~doc:"Confidence level of the Wilson interval, in (0, 1).")
  in
  let epsilon =
    Arg.(value & opt float 0.01
         & info [ "epsilon" ] ~docv:"E"
             ~doc:"Stop once the interval half-width is at most $(docv).")
  in
  let max_samples =
    Arg.(value & opt int 100_000
         & info [ "max-samples" ] ~docv:"N"
             ~doc:"Hard cap on drawn probes; exits nonzero if the \
                   interval is still wider than epsilon when it hits.")
  in
  let seed =
    Arg.(value & opt int64 42L
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Probe-stream seed. The estimate depends only on \
                   $(docv) — never on --jobs or NAMING_ENGINE.")
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Estimate a world's coherence degree by sequential sampling: \
             draw seeded probes until the Wilson score interval at the \
             requested confidence is tighter than epsilon, instead of \
             sweeping every name exactly; exits nonzero when the \
             interval never converges within --max-samples")
    Term.(const cmd_estimate $ target $ confidence $ epsilon $ max_samples
          $ seed $ jobs_opt $ json_flag)

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run all experiments and print a markdown report")
    Term.(const cmd_report $ const ())

let lint_cmd =
  Cmd.v
    (Cmd.info "lint" ~doc:"Check a sample world's well-formedness")
    Term.(const cmd_lint $ scheme_or_all_arg)

let name_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME"
         ~doc:"Name to resolve, e.g. /usr/bin/cc")

let trace_cmd =
  Cmd.v
    (Cmd.info "trace" ~doc:"Resolve a name in a sample world, with trace")
    Term.(const cmd_trace $ scheme_arg $ name_arg)

let diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Diff the namespaces of a sample world's two activities")
    Term.(const cmd_diff $ scheme_arg)

let coherence_cmd =
  Cmd.v
    (Cmd.info "coherence"
       ~doc:"Check a name's coherence across a sample world's activities")
    Term.(const cmd_coherence $ scheme_arg $ name_arg)

let compile_stats_cmd =
  Cmd.v
    (Cmd.info "compile-stats"
       ~doc:"Compile a sample world to packed dispatch tables and print \
             their footprint, compile time and incremental-patch counters")
    Term.(const cmd_compile_stats $ scheme_or_all_arg $ jobs_opt)

let main =
  let man =
    [
      `S Manpage.s_description;
      `P "Inspection: $(b,list), $(b,dot), $(b,dump), $(b,trace), \
          $(b,diff), $(b,coherence), $(b,compile-stats).";
      `P "Experiments: $(b,exp), $(b,report).";
      `P "Scale: $(b,worldgen) (seeded million-entity worlds, streamed \
          as Codec v1), $(b,estimate) (sampling-based coherence degree \
          with a Wilson confidence interval).";
      `P "Static analysis: $(b,lint), $(b,analyze) (NG0xx, worlds), \
          $(b,check-script) (NG1xx, scripts), $(b,check-cluster) \
          (NG2xx, one fault schedule), $(b,explore) (NG3xx, the whole \
          bounded schedule space).";
      `P "Dynamic verification: $(b,chaos) (optionally replaying an \
          explorer witness with $(b,--schedule)).";
    ]
  in
  let info =
    Cmd.info "namingctl" ~version:"1.0.0" ~man
      ~doc:
        "Coherence in naming (Radia & Pachl, ICDCS 1993) — experiment and
inspection tool"
  in
  Cmd.group info
    [
      list_cmd; exp_cmd; report_cmd; dot_cmd; dump_cmd; lint_cmd;
      analyze_cmd; check_script_cmd; check_cluster_cmd; explore_cmd;
      trace_cmd; coherence_cmd; diff_cmd;
      compile_stats_cmd; chaos_cmd; worldgen_cmd; estimate_cmd;
    ]

let () = exit (Cmd.eval' main)
