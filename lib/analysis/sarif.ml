type source = {
  report : Engine.report;
  uri : string option;
  line_of : int -> int option;
}

let of_report ?uri ?(line_of = fun _ -> None) report = { report; uri; line_of }

let level_of = function
  | Diagnostic.Error -> "error"
  | Diagnostic.Warning -> "warning"
  | Diagnostic.Info -> "note"

let rule (code, severity, summary) =
  Naming.Json.Obj
    [
      ("id", Naming.Json.String code);
      ( "shortDescription",
        Naming.Json.Obj [ ("text", Naming.Json.String summary) ] );
      ( "defaultConfiguration",
        Naming.Json.Obj [ ("level", Naming.Json.String (level_of severity)) ] );
    ]

let location src (d : Diagnostic.t) =
  match src.uri with
  | Some uri ->
      let region =
        match Option.bind d.loc src.line_of with
        | Some line ->
            [
              ( "region",
                Naming.Json.Obj [ ("startLine", Naming.Json.Int line) ] );
            ]
        | None -> []
      in
      [
        ( "locations",
          Naming.Json.List
            [
              Naming.Json.Obj
                [
                  ( "physicalLocation",
                    Naming.Json.Obj
                      (("artifactLocation",
                        Naming.Json.Obj [ ("uri", Naming.Json.String uri) ])
                      :: region) );
                ];
            ] );
      ]
  | None ->
      [
        ( "locations",
          Naming.Json.List
            [
              Naming.Json.Obj
                [
                  ( "logicalLocations",
                    Naming.Json.List
                      [
                        Naming.Json.Obj
                          [
                            ( "name",
                              Naming.Json.String src.report.Engine.label );
                          ];
                      ] );
                ];
            ] );
      ]

let result src (d : Diagnostic.t) =
  Naming.Json.Obj
    ([
       ("ruleId", Naming.Json.String d.code);
       ("level", Naming.Json.String (level_of d.severity));
       ("message", Naming.Json.Obj [ ("text", Naming.Json.String d.message) ]);
       ( "properties",
         Naming.Json.Obj
           [
             ("pass", Naming.Json.String d.pass);
             ("label", Naming.Json.String src.report.Engine.label);
           ] );
     ]
    @ location src d)

let render sources =
  let results =
    List.concat_map
      (fun src -> List.map (result src) src.report.Engine.diagnostics)
      sources
  in
  let driver =
    Naming.Json.Obj
      [
        ("name", Naming.Json.String "namingctl");
        ("rules", Naming.Json.List (List.map rule Diagnostic.catalogue));
      ]
  in
  let run =
    Naming.Json.Obj
      [
        ("tool", Naming.Json.Obj [ ("driver", driver) ]);
        ("results", Naming.Json.List results);
      ]
  in
  Naming.Json.Obj
    [
      ( "$schema",
        Naming.Json.String
          "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
      );
      ("version", Naming.Json.String "2.1.0");
      ("runs", Naming.Json.List [ run ]);
    ]
