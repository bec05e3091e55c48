module N = Naming.Name
module E = Naming.Entity
module Sc = Workload.Script
module A = Absstate

type flow =
  | Use of { proc : int; name : N.t }
  | Send of { sender : int; receiver : int; name : N.t }
  | Read of { reader : int; path : string; name : N.t }

type step = Op of Sc.op | Flow of flow
type plan = step list

type config = {
  received_rule : [ `Receiver | `Sender ];
  embedded_rule : [ `Reader | `Source ];
  fuel : int;
}

let default_config =
  { received_rule = `Receiver; embedded_rule = `Reader; fuel = Predict.default_fuel }

type reason = Missing_ref of string | Fuel
type outcome = Coherent | Incoherent | Vacuous | Unknown of reason

type role =
  | Proc of { proc : int; label : string; what : string }
  | Scope of { path : string; source_rule : bool }

type side = {
  role : role;
  value : A.value;
  steps : A.step list;
  stale : A.stale option;
}

type divergence = { parent : int; parent_value : A.value }

type verdict = {
  index : int;
  flow : flow;
  outcome : outcome;
  sides : side list;
  divergence : divergence option;
}

type result = {
  config : config;
  verdicts : verdict list;
  skips : (int * Sc.skip) list;
  ops : int;
  flows : int;
  procs : int;
  nodes : int;
  dirs : int;
  labels : A.labels;
}

let name_of = function
  | Use { name; _ } | Send { name; _ } | Read { name; _ } -> name

let atoms_of name = List.map N.atom_to_string (N.atoms name)
let no_process i role = Printf.sprintf "no process %d (%s)" i role
let no_object path = Printf.sprintf "%s does not name an object" path

let procs_needed = function
  | Use { proc; _ } -> [ (proc, "proc") ]
  | Send { sender; receiver; _ } ->
      [ (sender, "sender"); (receiver, "receiver") ]
  | Read { reader; _ } -> [ (reader, "reader") ]

(* Mirror of [Coherence.check] over a two-occurrence set: undefined
   everywhere is vacuous, equal defined entities are coherent, anything
   else (two entities, or defined vs ⊥) is incoherent. *)
let classify2 va vb =
  match (va, vb) with
  | A.Bot, A.Bot -> Vacuous
  | va, vb -> if A.equal_value va vb then Coherent else Incoherent

(* ------------------------------------------------------------------ *)
(* Static analysis                                                     *)

let side_of role (value, steps, stale) = { role; value; steps; stale }

let proc_role st proc what = Proc { proc; label = A.proc_label st proc; what }

(* The scope a name written inside the host tree is read in: the whole
   tree for absolute names (mirror of [Fs.lookup]), the object's
   containing directory for relative ones (mirror of [Fs.resolve_from]). *)
let source_scope st ~parent name =
  let atoms = atoms_of name in
  if N.is_absolute name then
    match atoms with
    | [ "/" ] -> Some (A.Node (A.root st), [])
    | "/" :: rest -> Some (A.resolve_at st ~dir:(A.root st) rest)
    | _ -> None
  else
    match parent with
    | A.Node dir -> Some (A.resolve_at st ~dir atoms)
    | A.Bot -> None

let judge st ~config ~index fl =
  let unknown reason =
    { index; flow = fl; outcome = Unknown reason; sides = []; divergence = None }
  in
  match
    List.find_opt (fun (i, _) -> not (A.mem_proc st i)) (procs_needed fl)
  with
  | Some (i, role) -> unknown (Missing_ref (no_process i role))
  | None -> (
      let name = name_of fl in
      if N.length name > config.fuel then unknown Fuel
      else
        let atoms = atoms_of name in
        match fl with
        | Use { proc; _ } ->
            let ((v, _, _) as r) = A.resolve_proc st proc atoms in
            let s = side_of (proc_role st proc "use") r in
            let divergence =
              match A.proc_parent st proc with
              | Some parent when A.mem_proc st parent ->
                  let pv, _, _ = A.resolve_proc st parent atoms in
                  if A.equal_value pv v then None
                  else Some { parent; parent_value = pv }
              | _ -> None
            in
            let outcome =
              match v with A.Bot -> Vacuous | A.Node _ -> Coherent
            in
            { index; flow = fl; outcome; sides = [ s ]; divergence }
        | Send { sender; receiver; _ } ->
            let ((va, _, _) as ra) = A.resolve_proc st sender atoms in
            let ((vb, _, _) as rb) =
              match config.received_rule with
              | `Receiver -> A.resolve_proc st receiver atoms
              | `Sender -> ra
            in
            {
              index;
              flow = fl;
              outcome = classify2 va vb;
              sides =
                [
                  side_of (proc_role st sender "sender") ra;
                  side_of (proc_role st receiver "receiver") rb;
                ];
              divergence = None;
            }
        | Read { reader; path; _ } -> (
            match A.lookup_path st path with
            | A.Bot, _ -> unknown (Missing_ref (no_object path))
            | A.Node _, _ -> (
                let parent = A.parent_dir_of st path in
                match source_scope st ~parent name with
                | None -> unknown (Missing_ref (no_object path))
                | Some (va, steps) ->
                    let scope source_rule =
                      side_of (Scope { path; source_rule }) (va, steps, None)
                    in
                    let sb =
                      match config.embedded_rule with
                      | `Reader ->
                          side_of (proc_role st reader "reader")
                            (A.resolve_proc st reader atoms)
                      | `Source -> scope true
                    in
                    let sa = scope false in
                    {
                      index;
                      flow = fl;
                      outcome = classify2 va sb.value;
                      sides = [ sa; sb ];
                      divergence = None;
                    })))

let analyze ?(config = default_config) (plan : plan) =
  let st = A.create () in
  let rev_verdicts = ref [] in
  let rev_skips = ref [] in
  let op_idx = ref 0 in
  let n_flows = ref 0 in
  List.iteri
    (fun index item ->
      match item with
      | Op op ->
          (match A.apply st ~index:!op_idx op with
          | Ok () -> ()
          | Error reason ->
              rev_skips := (index, { Sc.index = !op_idx; op; reason }) :: !rev_skips);
          incr op_idx
      | Flow fl ->
          incr n_flows;
          rev_verdicts := judge st ~config ~index fl :: !rev_verdicts)
    plan;
  {
    config;
    verdicts = List.rev !rev_verdicts;
    skips = List.rev !rev_skips;
    ops = !op_idx;
    flows = !n_flows;
    procs = A.n_procs st;
    nodes = A.n_nodes st;
    dirs = A.n_dirs st;
    labels = A.labels st;
  }

(* Each analysis builds its own abstract state and store from its plan,
   so plans are fully independent: one pool task per plan. *)
let analyze_many ?config ?jobs plans =
  Naming.Pool.map ?jobs (fun plan -> analyze ?config plan) plans

(* ------------------------------------------------------------------ *)
(* Dynamic replay                                                      *)

type dyn = { dyn_index : int; dyn_outcome : outcome; dyn_diverged : bool }

type replay_result = {
  dyn_verdicts : dyn list;
  dyn_skips : (int * Sc.skip) list;
}

let entity_outcome ea eb =
  match (E.is_defined ea, E.is_defined eb) with
  | false, false -> Vacuous
  | true, true when E.equal ea eb -> Coherent
  | _ -> Incoherent

let outcome_of_coherence = function
  | Naming.Coherence.Coherent _ | Naming.Coherence.Weakly_coherent _ ->
      Coherent
  | Naming.Coherence.Incoherent _ -> Incoherent
  | Naming.Coherence.Vacuous -> Vacuous

(* The containing directory of a path in the live world — the dynamic
   counterpart of [Absstate.parent_dir_of]. *)
let dyn_parent_dir fs path =
  match N.of_string path with
  | exception N.Invalid _ -> E.undefined
  | n -> (
      match N.parent n with
      | None -> Vfs.Fs.root fs
      | Some p when N.equal p (N.singleton N.root_atom) -> Vfs.Fs.root fs
      | Some p ->
          let e = Vfs.Fs.lookup fs (N.to_string p) in
          if Naming.Store.is_context_object (Vfs.Fs.store fs) e then e
          else E.undefined)

let replay ?(config = default_config) (plan : plan) =
  let store = Naming.Store.create () in
  let w = Sc.new_world store in
  let env = Sc.env w in
  let fs = Sc.fs w in
  let asg = Schemes.Process_env.assignment env in
  let parents : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let proc = Sc.proc w in
  let resolve p name = Schemes.Process_env.resolve env ~as_:p name in
  let judge_dyn index fl =
    let unknown reason =
      { dyn_index = index; dyn_outcome = Unknown reason; dyn_diverged = false }
    in
    match
      List.find_opt (fun (i, _) -> proc i = None) (procs_needed fl)
    with
    | Some (i, role) -> unknown (Missing_ref (no_process i role))
    | None -> (
        let name = name_of fl in
        match fl with
        | Use { proc = i; _ } ->
            let p = Option.get (proc i) in
            let v = resolve p name in
            let diverged =
              match Hashtbl.find_opt parents i with
              | Some pi -> (
                  match proc pi with
                  | Some q -> not (E.equal v (resolve q name))
                  | None -> false)
              | None -> false
            in
            {
              dyn_index = index;
              dyn_outcome = (if E.is_defined v then Coherent else Vacuous);
              dyn_diverged = diverged;
            }
        | Send { sender; receiver; _ } ->
            let ps = Option.get (proc sender)
            and pr = Option.get (proc receiver) in
            let outcome =
              if N.is_absolute name then
                (* The paper machinery applies directly: resolve the two
                   occurrences of the exchange under the configured rule. *)
                let occs =
                  Workload.Exchange.occurrences
                    { Workload.Exchange.sender = ps; receiver = pr; name }
                in
                let rule =
                  match config.received_rule with
                  | `Receiver -> Naming.Rule.of_activity asg
                  | `Sender ->
                      Naming.Rule.fallback
                        (Naming.Rule.of_sender asg)
                        (Naming.Rule.of_activity asg)
                in
                outcome_of_coherence
                  (Naming.Coherence.check store rule occs name)
              else
                let ea = resolve ps name in
                let eb =
                  match config.received_rule with
                  | `Receiver -> resolve pr name
                  | `Sender -> ea
                in
                entity_outcome ea eb
            in
            { dyn_index = index; dyn_outcome = outcome; dyn_diverged = false }
        | Read { reader; path; _ } -> (
            let pr = Option.get (proc reader) in
            match Vfs.Fs.lookup fs path with
            | exception N.Invalid _ -> unknown (Missing_ref (no_object path))
            | src when E.is_undefined src ->
                unknown (Missing_ref (no_object path))
            | _src ->
                let ea =
                  if N.is_absolute name then Vfs.Fs.lookup fs (N.to_string name)
                  else
                    let dir = dyn_parent_dir fs path in
                    if E.is_undefined dir then E.undefined
                    else Vfs.Fs.resolve_from fs ~dir name
                in
                let eb =
                  match config.embedded_rule with
                  | `Reader -> resolve pr name
                  | `Source -> ea
                in
                {
                  dyn_index = index;
                  dyn_outcome = entity_outcome ea eb;
                  dyn_diverged = false;
                }))
  in
  let rev_dyn = ref [] in
  let rev_skips = ref [] in
  let op_idx = ref 0 in
  List.iteri
    (fun index item ->
      match item with
      | Op op ->
          let child = Sc.process_count w in
          (match Sc.apply_checked w op with
          | Ok () -> (
              match op with
              | Sc.Fork i -> Hashtbl.replace parents child i
              | _ -> ())
          | Error reason ->
              rev_skips := (index, { Sc.index = !op_idx; op; reason }) :: !rev_skips);
          incr op_idx
      | Flow fl -> rev_dyn := judge_dyn index fl :: !rev_dyn)
    plan;
  { dyn_verdicts = List.rev !rev_dyn; dyn_skips = List.rev !rev_skips }

let agrees static dynamic =
  match (static, dynamic) with
  | Unknown _, _ -> true
  | Coherent, Coherent | Incoherent, Incoherent | Vacuous, Vacuous -> true
  | (Coherent | Incoherent | Vacuous), _ -> false

(* ------------------------------------------------------------------ *)
(* Parsing and printing                                                *)

let flow_to_string = function
  | Use { proc; name } -> Printf.sprintf "use %d %s" proc (N.to_string name)
  | Send { sender; receiver; name } ->
      Printf.sprintf "send %d %d %s" sender receiver (N.to_string name)
  | Read { reader; path; name } ->
      Printf.sprintf "read %d %s %s" reader path (N.to_string name)

let role_to_string = function
  | Proc { proc; label; what } ->
      Printf.sprintf "proc %d:%s (%s)" proc label what
  | Scope { path; source_rule } ->
      Printf.sprintf "scope of %s%s" path
        (if source_rule then " (source rule)" else "")

let step_to_string = function
  | Op op -> Sc.op_to_string op
  | Flow fl -> flow_to_string fl

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go ln rev_steps rev_lines = function
    | [] -> Ok (List.rev rev_steps, Array.of_list (List.rev rev_lines))
    | raw :: rest -> (
        let line = String.trim raw in
        if String.equal line "" || Char.equal line.[0] '#' then
          go (ln + 1) rev_steps rev_lines rest
        else
          let err msg = Error (Printf.sprintf "line %d: %s" ln msg) in
          let flow_scan fmt k =
            match Scanf.sscanf line fmt k with
            | fl -> Ok (Flow fl)
            | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
                Error (Printf.sprintf "unparseable flow: %S" line)
            | exception N.Invalid msg -> Error msg
          in
          let step =
            match String.index_opt line ' ' with
            | Some i when String.equal (String.sub line 0 i) "use" ->
                flow_scan "use %d %s%!" (fun proc s ->
                    Use { proc; name = N.of_string s })
            | Some i when String.equal (String.sub line 0 i) "send" ->
                flow_scan "send %d %d %s%!" (fun sender receiver s ->
                    Send { sender; receiver; name = N.of_string s })
            | Some i when String.equal (String.sub line 0 i) "read" ->
                flow_scan "read %d %s %s%!" (fun reader path s ->
                    Read { reader; path; name = N.of_string s })
            | _ -> Result.map (fun op -> Op op) (Sc.op_of_string line)
          in
          match step with
          | Ok s -> go (ln + 1) (s :: rev_steps) (ln :: rev_lines) rest
          | Error msg -> err msg)
  in
  go 1 [] [] lines

let pp_plan ppf plan =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list (fun ppf s ->
         Format.pp_print_string ppf (step_to_string s)))
    plan

let pp_outcome ppf = function
  | Coherent -> Format.pp_print_string ppf "coherent"
  | Incoherent -> Format.pp_print_string ppf "incoherent"
  | Vacuous -> Format.pp_print_string ppf "vacuous"
  | Unknown Fuel -> Format.pp_print_string ppf "unknown (fuel exhausted)"
  | Unknown (Missing_ref r) -> Format.fprintf ppf "unknown (%s)" r
