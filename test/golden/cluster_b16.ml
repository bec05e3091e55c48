(* Prints the check-cluster JSON report of the b16 subject set (the
   `cluster` selector of bench/main.ml) at the replica count given as
   the only argument: eight seeds of one loss-free schedule (partition
   10 s at t=5, crash 6 s at t=8, 16 writes over 15 s, a 40 s run) over
   a two-directory spec. The golden rules in this directory pin it at 3
   and 8 replicas, where it carries dozens of NG201 races, the NG203
   stale windows and the NG205 stamp ties. *)

module Ns = Dsim.Nameserver
module Ch = Dsim.Chaos
module N = Naming.Name

let spec =
  {
    Ns.dirs = [ N.of_string "/a"; N.of_string "/a/b" ];
    leaves = [ ("k1", "one"); ("k2", "two") ];
    links = [ (N.of_string "/a/x", "k1"); (N.of_string "/a/b/y", "k2") ];
  }

let config ~seed ~replicas =
  {
    Ch.default with
    Ch.seed;
    replicas;
    drop = 0.0;
    duplicate = 0.0;
    partition_at = 5.0;
    partition_for = 10.0;
    crash_at = 8.0;
    crash_for = 6.0;
    writes = 16;
    write_window = 15.0;
    duration = 40.0;
  }

let () =
  let replicas = int_of_string Sys.argv.(1) in
  let subjects =
    List.init 8 (fun seed ->
        ( Printf.sprintf "s%d" seed,
          Analysis.Replpasses.subject (config ~seed ~replicas) spec ))
  in
  (* NG2xx diagnostics carry no store entities; any store renders them. *)
  let store = Naming.Store.create () in
  print_endline
    (Naming.Json.to_string_pretty
       (Naming.Json.Obj
          [
            ( "subjects",
              Naming.Json.List
                (List.map
                   (fun (_st, r) -> Analysis.Engine.to_json store r)
                   (Analysis.Replpasses.report_many subjects)) );
          ]))
