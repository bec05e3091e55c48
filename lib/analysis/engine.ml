type config = { min_severity : Diagnostic.severity; fuel : int }

let default_config =
  { min_severity = Diagnostic.Info; fuel = Predict.default_fuel }

type pass = {
  id : string;
  doc : string;
  run : config -> Subject.t -> Diagnostic.t list;
}

let all_passes =
  [
    {
      id = "structure";
      doc = "dot and foreign-binding conventions (NG001-NG004)";
      run = (fun _cfg t -> Passes.structure t);
    };
    {
      id = "reachability";
      doc = "objects unreachable from every activity root (NG005)";
      run = (fun _cfg t -> Passes.reachability t);
    };
    {
      id = "crosslinks";
      doc = "cross-tree links and dangling cross-links (NG006-NG007)";
      run = (fun _cfg t -> Passes.crosslinks t);
    };
    {
      id = "cycles";
      doc = "directed cycles through non-dot edges (NG008)";
      run = (fun _cfg t -> Passes.cycles t);
    };
    {
      id = "aliases";
      doc = "entities with several non-dot names (NG009)";
      run = (fun _cfg t -> Passes.aliases t);
    };
    {
      id = "coherence";
      doc = "static coherence prediction over the probe names (NG010-NG011)";
      run = (fun cfg t -> Passes.coherence ~fuel:cfg.fuel t);
    };
  ]

type report = {
  label : string;
  activities : int;
  objects : int;
  context_objects : int;
  probes : int;
  passes_run : string list;
  diagnostics : Diagnostic.t list;
  errors : int;
  warnings : int;
  infos : int;
}

let assemble ?(min_severity = Diagnostic.Info) ~label ~activities ~objects
    ~context_objects ~probes ~passes_run diagnostics =
  let diagnostics = List.stable_sort Diagnostic.compare diagnostics in
  (* Cross-pass dedup: two passes reporting the same (code, message,
     pass, loc, name) finding — adjacent after the total-order sort —
     collapse to one, so reports are deterministic sets, not bags. *)
  let diagnostics =
    let rec dedup = function
      | a :: (b :: _ as rest) ->
          if Diagnostic.compare a b = 0 then dedup rest else a :: dedup rest
      | short -> short
    in
    dedup diagnostics
  in
  let count sev =
    List.length
      (List.filter (fun d -> d.Diagnostic.severity = sev) diagnostics)
  in
  let min_rank = Diagnostic.severity_rank min_severity in
  {
    label;
    activities;
    objects;
    context_objects;
    probes;
    passes_run;
    diagnostics =
      List.filter
        (fun d -> Diagnostic.severity_rank d.Diagnostic.severity >= min_rank)
        diagnostics;
    errors = count Diagnostic.Error;
    warnings = count Diagnostic.Warning;
    infos = count Diagnostic.Info;
  }

let analyze ?(config = default_config) ~label (t : Subject.t) =
  let diagnostics = List.concat_map (fun p -> p.run config t) all_passes in
  let store = t.Subject.store in
  assemble ~min_severity:config.min_severity ~label
    ~activities:(List.length t.Subject.activities)
    ~objects:(List.length (Naming.Store.objects store))
    ~context_objects:(List.length (Naming.Store.context_objects store))
    ~probes:(List.length t.Subject.probes)
    ~passes_run:(List.map (fun p -> p.id) all_passes)
    diagnostics

let analyze_many ?config ?jobs subjects =
  Naming.Pool.map_frozen ?jobs
    ~store:(fun (_, t) -> t.Subject.store)
    (fun (label, t) -> analyze ?config ~label t)
    subjects

let has_errors r = r.errors > 0
let exit_code reports = if List.exists has_errors reports then 1 else 0

let pp store ppf r =
  Format.fprintf ppf
    "analyze %s: %d activities, %d objects (%d contexts), %d probes@\n"
    r.label r.activities r.objects r.context_objects r.probes;
  Format.fprintf ppf "passes: %s@\n" (String.concat " " r.passes_run);
  List.iter
    (fun d -> Format.fprintf ppf "  %a@\n" (Diagnostic.pp store) d)
    r.diagnostics;
  Format.fprintf ppf "summary: %d error(s), %d warning(s), %d info(s)"
    r.errors r.warnings r.infos

let to_json store r =
  Naming.Json.Obj
    [
      ("label", Naming.Json.String r.label);
      ("activities", Naming.Json.Int r.activities);
      ("objects", Naming.Json.Int r.objects);
      ("context_objects", Naming.Json.Int r.context_objects);
      ("probes", Naming.Json.Int r.probes);
      ( "passes",
        Naming.Json.List
          (List.map (fun p -> Naming.Json.String p) r.passes_run) );
      ( "counts",
        Naming.Json.Obj
          [
            ("error", Naming.Json.Int r.errors);
            ("warning", Naming.Json.Int r.warnings);
            ("info", Naming.Json.Int r.infos);
          ] );
      ( "diagnostics",
        Naming.Json.List (List.map (Diagnostic.to_json store) r.diagnostics) );
    ]
