(* Checks on bin/namingctl.ml. Source-level: every subcommand the CLI
   registers must be mentioned (as a bold $(b,name) cross-reference) in
   the man-page overview, so `namingctl man`/`--help` never silently
   trails the command set; those checks parse the source (declared as a
   dune dep), not the binary. The rest run the built binary. *)

let check = Alcotest.check

(* Under `dune runtest` the cwd is the sandboxed test directory and the
   declared dep sits at ../bin/; a bare `dune exec test/test_main.exe`
   runs from the project root instead. *)
let source_path () =
  List.find_opt Sys.file_exists [ "../bin/namingctl.ml"; "bin/namingctl.ml" ]
  |> Option.value ~default:"../bin/namingctl.ml"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let read_source () = read_file (source_path ())

(* All X from occurrences of [Cmd.info "X"] — the registration point
   every subcommand must pass through. *)
let registered_subcommands src =
  let needle = {|Cmd.info "|} in
  let nlen = String.length needle in
  let rec scan acc from =
    match
      if from >= String.length src then None
      else
        let rec find i =
          if i + nlen > String.length src then None
          else if String.sub src i nlen = needle then Some i
          else find (i + 1)
        in
        find from
    with
    | None -> List.rev acc
    | Some i -> (
        let start = i + nlen in
        match String.index_from_opt src start '"' with
        | None -> List.rev acc
        | Some stop ->
            scan (String.sub src start (stop - start) :: acc) (stop + 1))
  in
  scan [] 0

let contains_sub s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_man_covers_every_subcommand () =
  let src = read_source () in
  let subs =
    registered_subcommands src
    |> List.filter (fun s -> not (String.equal s "namingctl"))
  in
  check Alcotest.bool "found a plausible number of subcommands" true
    (List.length subs >= 10);
  List.iter
    (fun sub ->
      check Alcotest.bool
        (Printf.sprintf "man overview mentions $(b,%s)" sub)
        true
        (contains_sub src (Printf.sprintf "$(b,%s)" sub)))
    subs

let test_subcommands_are_distinct () =
  let src = read_source () in
  let subs = registered_subcommands src in
  let sorted = List.sort_uniq String.compare subs in
  check Alcotest.int "no subcommand registered twice" (List.length sorted)
    (List.length subs)

(* The removed "cached" engine is refused by name through
   NAMING_ENGINE, with exit 2 and the accepted names listed. Runs the
   built CLI (a declared dune dep next to the source). *)
let namingctl_path () =
  List.find_opt Sys.file_exists
    [ "../bin/namingctl.exe"; "_build/default/bin/namingctl.exe" ]

(* Runs the CLI; returns its exit code, stdout and stderr. *)
let run_cli ?(env = "") args =
  match namingctl_path () with
  | None -> Alcotest.fail "namingctl.exe not built"
  | Some exe ->
      let out = Filename.temp_file "namingctl" ".out" in
      let err = Filename.temp_file "namingctl" ".err" in
      let code =
        Sys.command
          (Printf.sprintf "%s %s %s >%s 2>%s" env (Filename.quote exe) args
             (Filename.quote out) (Filename.quote err))
      in
      let stdout = read_file out and stderr = read_file err in
      Sys.remove out;
      Sys.remove err;
      (code, stdout, stderr)

let test_cached_engine_rejected () =
  (match Naming.Engine.parse_kind "cached" with
  | Ok _ -> Alcotest.fail "parse_kind accepted \"cached\""
  | Error msg ->
      check Alcotest.bool "parse error lists the engines" true
        (contains_sub msg "interpreted, compiled"));
  List.iter
    (fun (label, env, args) ->
      let code, _, msg = run_cli ~env args in
      check Alcotest.int (label ^ ": exit 2") 2 code;
      check Alcotest.bool (label ^ ": lists the engines") true
        (contains_sub msg "interpreted, compiled"))
    [ ("NAMING_ENGINE=cached", "NAMING_ENGINE=cached", "estimate unix") ]

(* An out-of-range --drop is bad user input (exit 2) for both commands
   that share the option, not a run whose report prints "nan". *)
let test_drop_rejected () =
  List.iter
    (fun args ->
      let code, _, msg = run_cli args in
      check Alcotest.int (args ^ ": exit 2") 2 code;
      check Alcotest.bool (args ^ ": names the option") true
        (contains_sub msg "invalid --drop"))
    [
      "chaos unix --drop nan --json";
      "chaos unix --drop 7";
      "check-cluster unix --drop inf";
    ]

(* The estimate report carries the target path byte for byte, as a
   JSON string, even with non-ASCII bytes and a backslash in it. *)
let test_estimate_json_target () =
  let path = Filename.temp_file "w\xc3\xb6rld\\x" ".dump" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, _, msg =
        run_cli
          ("worldgen unixlike --size 100 --seed 1 --out " ^ Filename.quote path)
      in
      check Alcotest.int ("worldgen: " ^ msg) 0 code;
      let code, out, msg =
        run_cli
          ("estimate --json --max-samples 200 --seed 3 " ^ Filename.quote path)
      in
      check Alcotest.bool ("estimate ran: " ^ msg) true (code = 0 || code = 1);
      match Naming.Json.of_string out with
      | Ok (Naming.Json.Obj fields) ->
          check Alcotest.(option string) "target" (Some path)
            (match List.assoc_opt "target" fields with
            | Some (Naming.Json.String t) -> Some t
            | _ -> None)
      | Ok _ -> Alcotest.fail "estimate --json is not an object"
      | Error m -> Alcotest.failf "estimate --json is not JSON: %s" m)

let suite =
  [
    Alcotest.test_case "man overview covers every subcommand" `Quick
      test_man_covers_every_subcommand;
    Alcotest.test_case "subcommand names are distinct" `Quick
      test_subcommands_are_distinct;
    Alcotest.test_case "cached engine rejected" `Quick
      test_cached_engine_rejected;
    Alcotest.test_case "out-of-range --drop rejected" `Quick
      test_drop_rejected;
    Alcotest.test_case "estimate --json escapes the target" `Quick
      test_estimate_json_target;
  ]
