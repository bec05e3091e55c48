module N = Naming.Name
module E = Naming.Entity
module S = Naming.Store
module C = Naming.Context

let is_dot a = N.atom_equal a N.self_atom || N.atom_equal a N.parent_atom

(* A directory is a tree-child of [parent] when its ".." binding points
   back at [parent] (or when it has no ".." at all, for dot-less file
   systems). Directories attached from elsewhere — cross-links, shared
   subtrees — fail this test and are treated as external: they stay
   shared when the subtree is copied. *)
let is_tree_child store ~parent dst =
  match S.context_of store dst with
  | None -> true (* plain objects always belong to the structured object *)
  | Some ctx ->
      let up = C.lookup ctx N.parent_atom in
      E.is_undefined up || E.equal up parent

let members fs root =
  let store = Fs.store fs in
  let rec go acc = function
    | [] -> acc
    | e :: rest ->
        if E.Set.mem e acc then go acc rest
        else
          let acc = E.Set.add e acc in
          let succs =
            match S.context_of store e with
            | None -> []
            | Some ctx ->
                List.filter_map
                  (fun (a, dst) ->
                    if
                      is_dot a
                      || (not (E.is_defined dst))
                      || not (is_tree_child store ~parent:e dst)
                    then None
                    else Some dst)
                  (C.bindings ctx)
          in
          go acc (succs @ rest)
  in
  go E.Set.empty [ root ]

let size fs root = E.Set.cardinal (members fs root)

let copy fs root =
  let store = Fs.store fs in
  let member_set = members fs root in
  let clones = E.Tbl.create 16 in
  (* First pass: allocate clones. *)
  E.Set.iter
    (fun e ->
      let label =
        match S.label store e with Some l -> Some (l ^ "'") | None -> None
      in
      let clone =
        match S.obj_state store e with
        | Some (S.Context _) -> S.create_context_object ?label store
        | Some (S.Data d) -> S.create_object ?label ~state:(S.Data d) store
        | None -> e (* activities and foreign entities are not copied *)
      in
      E.Tbl.replace clones e clone)
    member_set;
  let clone_of e =
    if E.Set.mem e member_set then
      match E.Tbl.find_opt clones e with Some c -> c | None -> e
    else e
  in
  (* Second pass: rewire bindings. *)
  E.Set.iter
    (fun e ->
      match S.context_of store e with
      | None -> ()
      | Some ctx ->
          let clone = clone_of e in
          let rewired =
            C.fold
              (fun a target acc ->
                if N.atom_equal a N.self_atom then C.bind acc a clone
                else if N.atom_equal a N.parent_atom then
                  if E.equal e root then C.bind acc a clone
                  else C.bind acc a (clone_of target)
                else C.bind acc a (clone_of target))
              ctx C.empty
          in
          S.set_context store clone rewired)
    member_set;
  clone_of root

let attach fs ~dir ~name target = Fs.link fs ~dir name target

let detach fs ~dir ~name = Fs.unlink fs ~dir name

let relocate fs ~src ~name ~dst ?new_name () =
  let store = Fs.store fs in
  let atom = N.atom name in
  let target = S.lookup store ~dir:src atom in
  if E.is_undefined target then
    invalid_arg (Printf.sprintf "Subtree.relocate: no binding %S" name);
  if not (S.is_context_object store dst) then
    invalid_arg "Subtree.relocate: destination is not a directory";
  let new_atom = match new_name with None -> atom | Some s -> N.atom s in
  S.unbind store ~dir:src atom;
  S.bind store ~dir:dst new_atom target;
  if S.is_context_object store target then
    S.bind store ~dir:target N.parent_atom dst
