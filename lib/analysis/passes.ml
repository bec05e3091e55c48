module E = Naming.Entity
module N = Naming.Name
module C = Naming.Context
module S = Naming.Store
module L = Naming.Lint

let es store e = Format.asprintf "%a" (S.pp_entity store) e

(* ------------------------------------------------------------------ *)
(* structure: NG001..NG004, the Lint conventions                       *)

let structure (t : Subject.t) =
  let store = t.Subject.store in
  let of_violation v =
    let code, entities =
      match v with
      | L.Self_not_self d -> ("NG001", [ d ])
      | L.Parent_not_directory (d, p) -> ("NG002", [ d; p ])
      | L.Parent_not_linked (d, p) -> ("NG003", [ d; p ])
      | L.Binding_to_foreign (d, _, e) -> ("NG004", [ d; e ])
    in
    Diagnostic.make ~code ~severity:Diagnostic.Error ~pass:"structure"
      ~entities
      (Format.asprintf "%a" (L.pp_violation store) v)
  in
  List.map of_violation (L.check store).L.violations

(* ------------------------------------------------------------------ *)
(* reachability: NG005, orphan objects                                 *)

(* Anchored entities: everything reachable from some activity's selected
   context, plus the context objects whose state IS such a context (the
   per-activity context objects themselves, which nothing binds). *)
let anchored (t : Subject.t) =
  let store = t.Subject.store in
  let ctxs = List.map snd (Subject.contexts t) in
  let reach =
    List.fold_left
      (fun acc c -> E.Set.union acc (Naming.Graph.reachable_from_context store c))
      E.Set.empty ctxs
  in
  List.fold_left
    (fun acc o ->
      match S.context_of store o with
      | Some c when List.exists (C.equal c) ctxs -> E.Set.add o acc
      | _ -> acc)
    reach (S.context_objects store)

let reachability (t : Subject.t) =
  let store = t.Subject.store in
  let anchored = anchored t in
  List.filter_map
    (fun o ->
      if E.Set.mem o anchored then None
      else
        Some
          (Diagnostic.make ~code:"NG005" ~severity:Diagnostic.Warning
             ~pass:"reachability" ~entities:[ o ]
             (Printf.sprintf "%s is unreachable from every activity root"
                (es store o))))
    (S.objects store)

(* ------------------------------------------------------------------ *)
(* crosslinks: NG006 (cross-link), NG007 (dangling cross-link)         *)

(* An edge src -[a]-> dst is a cross-link when it enters directory [dst]
   from outside its parent tree: [a] is neither a dot nor "/", [dst]'s
   ".." denotes a directory, and that parent is not [src]. (A ".." to a
   non-directory is NG002's business, not a cross-link.) *)
let crosslink_edges store =
  List.filter
    (fun { Naming.Graph.src; label; dst } ->
      (not (L.is_dot label))
      && (not (N.atom_equal label N.root_atom))
      &&
      match S.context_of store dst with
      | None -> false
      | Some c ->
          let parent = C.lookup c N.parent_atom in
          E.is_defined parent
          && S.is_context_object store parent
          && not (E.equal parent src))
    (Naming.Graph.edges store)

(* Is [dst]'s home tree intact? Walk the ".." chain: every child must be
   linked back by its parent; a self-parent (a root) or a missing ".."
   ends the walk. *)
let parent_chain_intact store dst =
  let rec walk seen child =
    if E.Set.mem child seen then true (* ".." cycle: give up, not dangling *)
    else
      match S.context_of store child with
      | None -> false (* an ancestor is not a directory *)
      | Some c ->
          let parent = C.lookup c N.parent_atom in
          if E.is_undefined parent || E.equal parent child then true
          else if not (L.links_back store ~parent ~child) then false
          else walk (E.Set.add child seen) parent
  in
  walk E.Set.empty dst

let crosslinks (t : Subject.t) =
  let store = t.Subject.store in
  List.map
    (fun ({ Naming.Graph.src; label; dst } as _e) ->
      let where =
        Printf.sprintf "%s -[%s]-> %s" (es store src)
          (N.atom_to_string label) (es store dst)
      in
      if parent_chain_intact store dst then
        Diagnostic.make ~code:"NG006" ~severity:Diagnostic.Info
          ~pass:"crosslinks" ~entities:[ src; dst ]
          (Printf.sprintf "cross-link %s (enters a tree from outside)" where)
      else
        Diagnostic.make ~code:"NG007" ~severity:Diagnostic.Error
          ~pass:"crosslinks" ~entities:[ src; dst ]
          (Printf.sprintf
             "dangling cross-link %s: the target's own tree has lost it"
             where))
    (crosslink_edges store)

(* ------------------------------------------------------------------ *)
(* cycles: NG008, directed cycles through non-dot edges                *)

let cycles (t : Subject.t) =
  let store = t.Subject.store in
  let module T = E.Tbl in
  let colour = T.create 64 in
  let get e = match T.find_opt colour e with None -> `White | Some c -> c in
  let reported = T.create 8 in
  let diags = ref [] in
  let non_dot_succs e =
    List.filter_map
      (fun (a, dst) -> if L.is_dot a then None else Some dst)
      (Naming.Graph.out_edges store e)
  in
  let report cycle =
    (* One diagnostic per cycle; skip cycles sharing a node with one
       already reported. *)
    if not (List.exists (T.mem reported) cycle) then begin
      List.iter (fun e -> T.replace reported e ()) cycle;
      let path = String.concat " -> " (List.map (es store) cycle) in
      diags :=
        Diagnostic.make ~code:"NG008" ~severity:Diagnostic.Warning
          ~pass:"cycles" ~entities:cycle
          (Printf.sprintf "non-dot cycle: %s -> %s" path
             (es store (List.hd cycle)))
        :: !diags
    end
  in
  let rec visit path e =
    match get e with
    | `Grey ->
        (* [path] holds the grey stack, most recent first. *)
        let rec cycle_of acc = function
          | [] -> acc
          | x :: rest ->
              if E.equal x e then x :: acc else cycle_of (x :: acc) rest
        in
        report (cycle_of [] path)
    | `Black -> ()
    | `White ->
        T.replace colour e `Grey;
        List.iter (visit (e :: path)) (non_dot_succs e);
        T.replace colour e `Black
  in
  List.iter (visit []) (S.context_objects store);
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* aliases: NG009, entities with several non-dot names                 *)

let aliases (t : Subject.t) =
  let store = t.Subject.store in
  let seen = ref E.Set.empty in
  let diags = ref [] in
  List.iter
    (fun (a, ctx) ->
      let root = C.lookup ctx N.root_atom in
      match S.context_of store root with
      | None -> ()
      | Some root_ctx ->
          let by_entity =
            List.fold_left
              (fun acc (n, e) ->
                E.Map.update e
                  (function None -> Some [ n ] | Some ns -> Some (n :: ns))
                  acc)
              E.Map.empty
              (Naming.Graph.all_names store root_ctx ~max_depth:4 ())
          in
          E.Map.iter
            (fun e names ->
              if List.length names > 1 && not (E.Set.mem e !seen) then begin
                seen := E.Set.add e !seen;
                let names = List.rev_map N.to_string names in
                diags :=
                  Diagnostic.make ~code:"NG009" ~severity:Diagnostic.Info
                    ~pass:"aliases" ~entities:[ e; a ]
                    (Printf.sprintf
                       "%s has %d non-dot names from %s's root: %s"
                       (es store e) (List.length names) (es store a)
                       (String.concat ", " names))
                  :: !diags
              end)
            by_entity)
    (Subject.contexts t);
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* coherence: NG010 (provably incoherent), NG011 (undecided)           *)

let coherence ?fuel (t : Subject.t) =
  let store = t.Subject.store in
  let occs = Subject.occurrences t in
  List.filter_map
    (fun probe ->
      let p =
        Predict.predict ?fuel store t.Subject.rule occs probe
      in
      match p.Predict.outcome with
      | Predict.Coherent _ | Predict.Vacuous -> None
      | Predict.Incoherent ((o1, e1), (o2, e2)) ->
          let trace =
            match
              List.find_opt
                (fun (o, _, tr) -> tr <> [] && Naming.Occurrence.equal o o2)
                p.Predict.results
            with
            | Some (_, _, tr) -> tr
            | None -> (
                match p.Predict.results with (_, _, tr) :: _ -> tr | [] -> [])
          in
          Some
            (Diagnostic.make ~code:"NG010" ~severity:Diagnostic.Warning
               ~pass:"coherence"
               ~entities:(List.filter E.is_defined [ e1; e2 ])
               ~name:probe ~trace
               (Format.asprintf "probe %s is provably incoherent: %a -> %s, %a -> %s"
                  (N.to_string probe) Naming.Occurrence.pp o1 (es store e1)
                  Naming.Occurrence.pp o2 (es store e2)))
      | Predict.Unknown why ->
          Some
            (Diagnostic.make ~code:"NG011" ~severity:Diagnostic.Info
               ~pass:"coherence" ~name:probe
               (Printf.sprintf "probe %s undecided: %s" (N.to_string probe)
                  why)))
    t.Subject.probes
