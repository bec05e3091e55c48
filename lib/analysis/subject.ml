module E = Naming.Entity
module N = Naming.Name

type t = {
  store : Naming.Store.t;
  rule : Naming.Rule.t;
  activities : E.t list;
  probes : N.t list;
}

let occurrences t = List.map Naming.Occurrence.generated t.activities

let contexts t =
  List.filter_map
    (fun a ->
      match
        Naming.Rule.select t.rule t.store (Naming.Occurrence.generated a)
      with
      | Some c -> Some (a, c)
      | None -> None)
    t.activities

let default_probes t =
  let seen = ref N.Set.empty in
  let out = ref [] in
  let add n =
    if not (N.Set.mem n !seen) then begin
      seen := N.Set.add n !seen;
      out := n :: !out
    end
  in
  List.iter
    (fun (_a, ctx) ->
      let root = Naming.Context.lookup ctx N.root_atom in
      match Naming.Store.context_of t.store root with
      | None -> ()
      | Some root_ctx ->
          add (N.singleton N.root_atom);
          List.iter
            (fun (n, _e) -> add (N.cons N.root_atom n))
            (Naming.Graph.all_names t.store root_ctx ~max_depth:3 ()))
    (contexts t);
  List.rev !out

let v ?probes ~rule ~activities store =
  if activities = [] then invalid_arg "Subject.v: no activities";
  let t = { store; rule; activities; probes = [] } in
  let probes = match probes with Some p -> p | None -> default_probes t in
  { t with probes }
