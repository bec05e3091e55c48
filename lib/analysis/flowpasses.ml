module D = Diagnostic
module F = Flow

let flow_pass = "name-flow"
let skip_pass = "skips"

let flow_name = function
  | F.Use { name; _ } | F.Send { name; _ } | F.Read { name; _ } -> name

(* Values and traces are rendered here, only for the diagnostics that
   print them; silent verdicts cost no text at all. *)
let side_str labels (s : F.side) =
  let role = F.role_to_string s.role in
  let value = Absstate.value_to_string labels s.value in
  match s.steps with
  | [] -> Printf.sprintf "%s → %s" role value
  | steps ->
      Printf.sprintf "%s → %s via [%s]" role value
        (Absstate.trace_to_string labels steps)

let of_verdict labels (v : F.verdict) =
  let name = flow_name v.flow in
  let mk ~code ~severity fmt =
    Printf.ksprintf
      (D.make ~code ~severity ~pass:flow_pass ~name ~loc:v.index)
      ("%s: " ^^ fmt) (F.flow_to_string v.flow)
  in
  let sides_str () = String.concat "; " (List.map (side_str labels) v.sides) in
  let base =
    match (v.outcome, v.flow) with
    | F.Incoherent, F.Send _ ->
        [ mk ~code:"NG101" ~severity:D.Error "%s" (sides_str ()) ]
    | F.Incoherent, F.Read _ ->
        [ mk ~code:"NG102" ~severity:D.Error "%s" (sides_str ()) ]
    | F.Incoherent, F.Use _ -> []
    | F.Unknown F.Fuel, _ ->
        [
          mk ~code:"NG106" ~severity:D.Info
            "not decided within the fuel budget";
        ]
    | F.Unknown (F.Missing_ref reason), _ ->
        [ mk ~code:"NG105" ~severity:D.Warning "%s" reason ]
    | (F.Coherent | F.Vacuous), _ -> []
  in
  let stales =
    List.filter_map
      (fun (s : F.side) ->
        Option.map (fun st -> (st, s.F.role)) s.F.stale)
      v.sides
    |> List.sort_uniq (fun ((a : Absstate.stale), _) (b, _) ->
           compare (a.Absstate.binding, a.Absstate.unbound_at)
             (b.Absstate.binding, b.Absstate.unbound_at))
    |> List.map (fun ((st : Absstate.stale), role) ->
           mk ~code:"NG103" ~severity:D.Warning
             "%s resolves through %S, unbound at op %d"
             (F.role_to_string role) st.Absstate.binding st.Absstate.unbound_at)
  in
  let divs =
    match (v.divergence, v.sides) with
    | Some { F.parent; parent_value }, [ own ] ->
        let value = Absstate.value_to_string labels in
        [
          mk ~code:"NG104" ~severity:D.Warning
            "resolves %s but fork parent %d resolves %s" (value own.F.value)
            parent (value parent_value);
        ]
    | _ -> []
  in
  base @ stales @ divs

let of_skip (plan_idx, (sk : Workload.Script.skip)) =
  D.make ~code:"NG105" ~severity:D.Warning ~pass:skip_pass ~loc:plan_idx
    (Format.asprintf "%a" Workload.Script.pp_skip sk)

let diagnostics (r : F.result) =
  List.concat_map (of_verdict r.F.labels) r.F.verdicts
  @ List.map of_skip r.F.skips

let report ?min_severity ?config ~label plan =
  let r = F.analyze ?config plan in
  let rep =
    Engine.assemble ?min_severity ~label ~activities:r.F.procs
      ~objects:r.F.nodes ~context_objects:r.F.dirs ~probes:r.F.flows
      ~passes_run:[ flow_pass; skip_pass ]
      (diagnostics r)
  in
  (r, rep)

(* Each Flow.analyze builds its own store from the plan, so labelled
   plans are fully independent: one pool task per plan. *)
let report_many ?min_severity ?config ?jobs plans =
  Naming.Pool.map ?jobs
    (fun (label, plan) -> report ?min_severity ?config ~label plan)
    plans
