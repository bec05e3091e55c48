type severity = Info | Warning | Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_of_string = function
  | "info" -> Some Info
  | "warning" -> Some Warning
  | "error" -> Some Error
  | _ -> None

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2
let pp_severity ppf s = Format.pp_print_string ppf (severity_to_string s)

type t = {
  code : string;
  severity : severity;
  pass : string;
  message : string;
  entities : Naming.Entity.t list;
  name : Naming.Name.t option;
  trace : Naming.Resolver.trace;
  loc : int option;
}

let make ~code ~severity ~pass ?(entities = []) ?name ?(trace = []) ?loc
    message =
  { code; severity; pass; message; entities; name; trace; loc }

let compare d1 d2 =
  let c = Int.compare (severity_rank d2.severity) (severity_rank d1.severity) in
  if c <> 0 then c
  else
    let c = String.compare d1.code d2.code in
    if c <> 0 then c
    else
      let c = String.compare d1.message d2.message in
      if c <> 0 then c
      else
        let c = String.compare d1.pass d2.pass in
        if c <> 0 then c
        else
          let c = Option.compare Int.compare d1.loc d2.loc in
          if c <> 0 then c
          else
            Option.compare String.compare
              (Option.map Naming.Name.to_string d1.name)
              (Option.map Naming.Name.to_string d2.name)

let catalogue =
  [
    ("NG001", Error, "a directory whose '.' binding is not itself");
    ("NG002", Error, "a '..' binding to a non-directory");
    ("NG003", Error, "a '..' naming a directory that does not link back");
    ("NG004", Error, "a binding to an entity the store does not know");
    ("NG005", Warning, "an object unreachable from every activity root");
    ("NG006", Info, "a cross-link: an edge into a directory from outside \
                     its parent tree");
    ("NG007", Error, "a dangling cross-link: its target's own tree has \
                      lost it");
    ("NG008", Warning, "a directed cycle through non-dot edges");
    ("NG009", Info, "an entity denoted by several non-dot names (alias)");
    ("NG010", Warning, "a probe name that is provably incoherent across \
                        the activities");
    ("NG011", Info, "a probe name the static predictor could not decide \
                     within its budget");
    ("NG101", Error, "a sent name resolved under R(receiver) to a \
                      different entity than the sender's");
    ("NG102", Error, "an embedded name whose denotation for the reader \
                      differs from its source scope");
    ("NG103", Warning, "a name resolved through a binding that was \
                        explicitly unbound earlier");
    ("NG104", Warning, "a fork divergence: parent and child resolve the \
                        same name to different entities");
    ("NG105", Warning, "a silently-skipped op, or a flow using the result \
                        of one");
    ("NG106", Info, "a flow the analyzer could not decide within its \
                     budget");
    ("NG201", Error, "an LWW lost-update race: provably concurrent writes \
                      to one name, one of them silently overwritten");
    ("NG202", Error, "a write that can never reach some replica: the \
                      anti-entropy pull graph is not strongly connected \
                      over the run");
    ("NG203", Error, "a replica provably stale beyond the staleness bound \
                      for a whole fault window");
    ("NG204", Error, "a durability hole: every retransmission of a write \
                      lands inside its home replica's crash window");
    ("NG205", Warning, "a possible Lamport-stamp tie: the LWW winner \
                        decided only by origin id");
    ("NG206", Warning, "a dedup window smaller than the overlapping retry \
                        traffic, so exactly-once can break");
    ("NG207", Warning, "a replica group that can never satisfy the \
                        paper's §5 equivalence (orphaned or dangling \
                        spec entry)");
    ("NG208", Info, "a replication verdict undecided within the round \
                     budget");
    ("NG209", Warning, "a leader-mode unavailable window: the fault \
                        schedule provably denies a write quorum for an \
                        interval, so writes inside it cannot commit");
    ("NG210", Warning, "a transaction-outcome-unknown horizon: a write \
                        whose client deadline expires inside a no-quorum \
                        window, so the client can learn neither commit \
                        nor abort in time");
    ("NG301", Error, "a synthesized schedule that provably loses a write \
                      (minimized, replayable witness attached)");
    ("NG302", Error, "a synthesized schedule that defeats convergence \
                      within the exploration bound (minimized, replayable \
                      witness attached)");
    ("NG303", Warning, "a staleness-maximizing schedule: the longest \
                        provably-stale read the explorer could construct \
                        within bounds");
    ("NG304", Info, "the schedule space exhausted clean up to the \
                     exploration bounds");
  ]

let entity_str store e =
  match Naming.Store.label store e with
  | Some l -> Printf.sprintf "%s(%s)" (Naming.Entity.to_string e) l
  | None -> Naming.Entity.to_string e

let pp store ppf d =
  Format.fprintf ppf "%s %-7s %s" d.code (severity_to_string d.severity)
    d.message;
  (match d.loc with
  | Some i -> Format.fprintf ppf "@\n    step: %d" i
  | None -> ());
  (match d.name with
  | Some n -> Format.fprintf ppf "@\n    name: %s" (Naming.Name.to_string n)
  | None -> ());
  if d.trace <> [] then
    Format.fprintf ppf "@\n    trace: %a" (Naming.Resolver.pp_trace store)
      d.trace

let entity_json store e =
  let fields =
    [ ("entity", Naming.Json.String (Naming.Entity.to_string e)) ]
    @
    match Naming.Store.label store e with
    | Some l -> [ ("label", Naming.Json.String l) ]
    | None -> []
  in
  Naming.Json.Obj fields

let step_json store (s : Naming.Resolver.step) =
  Naming.Json.Obj
    [
      ("at", Naming.Json.String (entity_str store s.Naming.Resolver.at));
      ( "atom",
        Naming.Json.String (Naming.Name.atom_to_string s.Naming.Resolver.atom)
      );
      ( "target",
        Naming.Json.String (entity_str store s.Naming.Resolver.target) );
    ]

let to_json store d =
  Naming.Json.Obj
    ([
       ("code", Naming.Json.String d.code);
       ("severity", Naming.Json.String (severity_to_string d.severity));
       ("pass", Naming.Json.String d.pass);
       ("message", Naming.Json.String d.message);
       ("entities", Naming.Json.List (List.map (entity_json store) d.entities));
     ]
    @ (match d.loc with
      | Some i -> [ ("step", Naming.Json.Int i) ]
      | None -> [])
    @ (match d.name with
      | Some n -> [ ("name", Naming.Json.String (Naming.Name.to_string n)) ]
      | None -> [])
    @
    if d.trace = [] then []
    else [ ("trace", Naming.Json.List (List.map (step_json store) d.trace)) ])
