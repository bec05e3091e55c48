type edge = { src : Entity.t; label : Name.atom; dst : Entity.t }

(* A context never binds ⊥, so its bindings are the edges. *)
let out_edges store e =
  match Store.context_of store e with
  | None -> []
  | Some c -> Context.bindings c

let out_degree store e = List.length (out_edges store e)

let edges store =
  List.concat_map
    (fun src ->
      List.map (fun (label, dst) -> { src; label; dst }) (out_edges store src))
    (Store.context_objects store)

let reachable store ~from =
  let rec go visited = function
    | [] -> visited
    | e :: rest ->
        if Entity.Set.mem e visited then go visited rest
        else
          let visited = Entity.Set.add e visited in
          let succs = List.map snd (out_edges store e) in
          go visited (succs @ rest)
  in
  go Entity.Set.empty [ from ]

let reachable_from_context store ctx =
  let starts =
    List.filter_map
      (fun (_a, e) -> if Entity.is_defined e then Some e else None)
      (Context.bindings ctx)
  in
  List.fold_left
    (fun acc e -> Entity.Set.union acc (reachable store ~from:e))
    Entity.Set.empty starts

let has_cycle store =
  (* Iterative three-colour DFS over context objects. *)
  let module T = Entity.Tbl in
  let colour = T.create 64 in
  let get e = match T.find_opt colour e with None -> `White | Some c -> c in
  let cyclic = ref false in
  let rec visit e =
    match get e with
    | `Grey -> cyclic := true
    | `Black -> ()
    | `White ->
        T.replace colour e `Grey;
        List.iter (fun (_a, dst) -> if not !cyclic then visit dst)
          (out_edges store e);
        T.replace colour e `Black
  in
  List.iter
    (fun e -> if not !cyclic then visit e)
    (Store.context_objects store);
  !cyclic

let default_skip a =
  Name.atom_equal a Name.self_atom || Name.atom_equal a Name.parent_atom

let is_tree store ~root ~ignore =
  let visited = Entity.Tbl.create 64 in
  let ok = ref true in
  let rec visit e =
    List.iter
      (fun (a, dst) ->
        if not (ignore a) then
          if Entity.Tbl.mem visited dst then ok := false
          else begin
            Entity.Tbl.replace visited dst ();
            visit dst
          end)
      (out_edges store e)
  in
  Entity.Tbl.replace visited root ();
  visit root;
  !ok

(* Breadth-first enumeration of resolvable names, one level at a time:
   only the current level is materialised, and the next is expanded from
   it once it has been consumed. *)
let names_seq store ctx ~max_depth ?(skip = default_skip) () =
  (* [Context.bindings] less the skipped atoms, dropped before the sort
     rather than after it, and sorted on each atom's string fetched once
     rather than twice per comparison: interned atoms have distinct
     strings, so the order is the same. *)
  let sorted_children c =
    let keyed = ref [] in
    Context.iter_unordered
      (fun a e ->
        if not (skip a) then keyed := (Name.atom_to_string a, (a, e)) :: !keyed)
      c;
    List.map snd
      (List.sort (fun (s1, _) (s2, _) -> String.compare s1 s2) !keyed)
  in
  let children e =
    match Store.context_of store e with
    | None -> []
    | Some c -> sorted_children c
  in
  let expand frontier =
    List.rev
      (List.fold_left
         (fun next (n, e) ->
           List.fold_left
             (fun next (a, dst) -> (Name.snoc n a, dst) :: next)
             next (children e))
         [] frontier)
  in
  let rec level frontier depth () =
    if frontier = [] || depth > max_depth then Seq.Nil
    else
      Seq.append (List.to_seq frontier)
        (fun () ->
          if depth < max_depth then level (expand frontier) (depth + 1) ()
          else Seq.Nil)
        ()
  in
  level
    (List.map (fun (a, e) -> (Name.singleton a, e)) (sorted_children ctx))
    1

let all_names store ctx ~max_depth ?skip () =
  List.of_seq (names_seq store ctx ~max_depth ?skip ())

let names_of store ctx ~target ~max_depth ?skip () =
  List.filter_map
    (fun (n, e) -> if Entity.equal e target then Some n else None)
    (all_names store ctx ~max_depth ?skip ())

let to_dot store =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph naming {\n";
  let node_name e = Entity.to_string e in
  List.iter
    (fun e ->
      let lbl =
        match Store.label store e with
        | Some l -> Printf.sprintf "%s\\n%s" l (Entity.to_string e)
        | None -> Entity.to_string e
      in
      let shape = if Store.is_context_object store e then "folder" else "box" in
      Buffer.add_string buf
        (Printf.sprintf "  %s [label=\"%s\", shape=%s];\n" (node_name e) lbl
           shape))
    (Store.objects store);
  List.iter
    (fun a ->
      let lbl =
        match Store.label store a with
        | Some l -> Printf.sprintf "%s\\n%s" l (Entity.to_string a)
        | None -> Entity.to_string a
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s [label=\"%s\", shape=ellipse];\n" (node_name a)
           lbl))
    (Store.activities store);
  List.iter
    (fun { src; label; dst } ->
      Buffer.add_string buf
        (Printf.sprintf "  %s -> %s [label=\"%s\"];\n" (node_name src)
           (node_name dst)
           (Name.atom_to_string label)))
    (edges store);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
