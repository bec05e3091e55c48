module N = Naming.Name
module E = Naming.Entity
module S = Naming.Store

type t = { store : S.t; root : E.t }

let add_dots t dir ~parent =
  S.bind t.store ~dir N.self_atom dir;
  S.bind t.store ~dir N.parent_atom parent

let create ?(root_label = "/") store =
  let root = S.create_context_object ~label:root_label store in
  let t = { store; root } in
  add_dots t root ~parent:root;
  t

let of_root store root =
  if not (S.is_context_object store root) then
    invalid_arg "Fs.of_root: entity is not a context object";
  { store; root }

let store t = t.store
let root t = t.root

let kind t e =
  match S.obj_state t.store e with
  | Some (S.Context _) -> `Dir
  | Some (S.Data _) -> `File
  | None -> if E.is_defined e && S.exists t.store e then `Other else `Missing

let mkdir t ~under name =
  let atom = N.atom name in
  if not (S.is_context_object t.store under) then
    invalid_arg "Fs.mkdir: not a directory";
  let existing = S.lookup t.store ~dir:under atom in
  if E.is_defined existing then
    if S.is_context_object t.store existing then existing
    else invalid_arg (Printf.sprintf "Fs.mkdir: %s exists and is a file" name)
  else begin
    let dir = S.create_context_object ~label:name t.store in
    S.bind t.store ~dir:under atom dir;
    add_dots t dir ~parent:under;
    dir
  end

let relative_atoms path =
  let n = N.of_string path in
  if N.is_absolute n then
    match N.tail n with None -> [] | Some rest -> N.atoms rest
  else N.atoms n

let mkdir_path t path =
  List.fold_left
    (fun dir atom -> mkdir t ~under:dir (N.atom_to_string atom))
    t.root (relative_atoms path)

let add_file t path ~content =
  match List.rev (relative_atoms path) with
  | [] -> invalid_arg "Fs.add_file: path names the root"
  | base :: rev_dirs ->
      let dir =
        List.fold_left
          (fun dir atom -> mkdir t ~under:dir (N.atom_to_string atom))
          t.root
          (List.rev rev_dirs)
      in
      let existing = S.lookup t.store ~dir base in
      if E.is_defined existing then
        if S.is_context_object t.store existing then
          invalid_arg
            (Printf.sprintf "Fs.add_file: %s is an existing directory" path)
        else begin
          S.set_obj_state t.store existing (S.Data content);
          existing
        end
      else begin
        let file =
          S.create_object ~label:(N.atom_to_string base) ~state:(S.Data content)
            t.store
        in
        S.bind t.store ~dir base file;
        file
      end

let populate t specs =
  List.iter
    (fun spec ->
      let len = String.length spec in
      if len > 0 && Char.equal spec.[len - 1] '/' then
        ignore (mkdir_path t (String.sub spec 0 (len - 1)))
      else ignore (add_file t spec ~content:""))
    specs

let resolve_from t ~dir name =
  match S.context_of t.store dir with
  | None -> E.undefined
  | Some ctx -> Naming.Resolver.resolve t.store ctx name

let lookup t path =
  let atoms = relative_atoms path in
  match atoms with
  | [] -> t.root
  | l -> resolve_from t ~dir:t.root (N.of_atoms l)

let read t e = S.data_of t.store e

let write t e content =
  match S.obj_state t.store e with
  | Some (S.Data _) -> S.set_obj_state t.store e (S.Data content)
  | Some (S.Context _) | None -> invalid_arg "Fs.write: not a file"

let is_dot a = N.atom_equal a N.self_atom || N.atom_equal a N.parent_atom

let readdir t e =
  match S.context_of t.store e with
  | None -> []
  | Some ctx ->
      List.filter
        (fun (a, target) -> (not (is_dot a)) && E.is_defined target)
        (Naming.Context.bindings ctx)

let parent_of t e =
  match S.context_of t.store e with
  | None -> None
  | Some ctx ->
      let p = Naming.Context.lookup ctx N.parent_atom in
      if E.is_defined p then Some p else None

let link t ~dir name target =
  if not (S.is_context_object t.store dir) then
    invalid_arg "Fs.link: not a directory";
  S.bind t.store ~dir (N.atom name) target

let unlink t ~dir name =
  if not (S.is_context_object t.store dir) then
    invalid_arg "Fs.unlink: not a directory";
  S.unbind t.store ~dir (N.atom name)

let rename t ~dir old_name new_name =
  let old_atom = N.atom old_name and new_atom = N.atom new_name in
  let target = S.lookup t.store ~dir old_atom in
  if E.is_undefined target then
    invalid_arg (Printf.sprintf "Fs.rename: %S is not bound" old_name);
  if E.is_defined (S.lookup t.store ~dir new_atom) then
    invalid_arg (Printf.sprintf "Fs.rename: %S already exists" new_name);
  S.unbind t.store ~dir old_atom;
  S.bind t.store ~dir new_atom target

let remove_tree t ~dir name =
  let atom = N.atom name in
  if E.is_undefined (S.lookup t.store ~dir atom) then
    invalid_arg (Printf.sprintf "Fs.remove_tree: %S is not bound" name);
  S.unbind t.store ~dir atom

let walk t ?(follow_links = false) dir visit =
  let is_tree_child ~parent e =
    match S.context_of t.store e with
    | None -> true
    | Some ctx ->
        let up = Naming.Context.lookup ctx N.parent_atom in
        E.is_undefined up || E.equal up parent
  in
  let visited = E.Tbl.create 32 in
  let rec go prefix d =
    List.iter
      (fun (a, e) ->
        let here =
          match prefix with
          | None -> N.singleton a
          | Some p -> N.snoc p a
        in
        visit here e;
        if
          S.is_context_object t.store e
          && (follow_links || is_tree_child ~parent:d e)
          && not (E.Tbl.mem visited e)
        then begin
          E.Tbl.replace visited e ();
          go (Some here) e
        end)
      (readdir t d)
  in
  E.Tbl.replace visited dir ();
  go None dir

let find t dir ~pattern =
  let comps = String.split_on_char '/' pattern in
  let comps = List.filter (fun c -> not (String.equal c "")) comps in
  if comps = [] then invalid_arg "Fs.find: empty pattern";
  let rec validate = function
    | [] -> ()
    | [ _ ] -> ()
    | "**" :: _ -> invalid_arg "Fs.find: '**' must be the last component"
    | _ :: rest -> validate rest
  in
  validate comps;
  let results = ref [] in
  let rec deep prefix d =
    List.iter
      (fun (a, e) ->
        let here = N.snoc prefix a in
        results := (here, e) :: !results;
        if S.is_context_object t.store e then deep here e)
      (readdir t d)
  in
  let rec go prefix d = function
    | [] -> ()
    | [ "**" ] ->
        List.iter
          (fun (a, e) ->
            let here =
              match prefix with None -> N.singleton a | Some p -> N.snoc p a
            in
            results := (here, e) :: !results;
            if S.is_context_object t.store e then deep here e)
          (readdir t d)
    | comp :: rest ->
        List.iter
          (fun (a, e) ->
            let matches =
              String.equal comp "*" || String.equal comp (N.atom_to_string a)
            in
            if matches then begin
              let here =
                match prefix with None -> N.singleton a | Some p -> N.snoc p a
              in
              if rest = [] then results := (here, e) :: !results
              else if S.is_context_object t.store e then go (Some here) e rest
            end)
          (readdir t d)
  in
  go None dir comps;
  List.rev !results

let paths_of t ~target ~max_depth =
  match S.context_of t.store t.root with
  | None -> []
  | Some ctx -> Naming.Graph.names_of t.store ctx ~target ~max_depth ()

let tree_size t =
  (* Count entities reachable from the root ignoring dot edges. *)
  let visited = E.Tbl.create 64 in
  let rec visit e =
    if not (E.Tbl.mem visited e) then begin
      E.Tbl.replace visited e ();
      List.iter (fun (_a, dst) -> visit dst) (readdir t e)
    end
  in
  visit t.root;
  E.Tbl.length visited

let pp_tree ppf t =
  let visited = E.Tbl.create 64 in
  let rec go ppf (indent, name, e) =
    let pad = String.make indent ' ' in
    match kind t e with
    | `Dir ->
        if E.Tbl.mem visited e then
          Format.fprintf ppf "%s%s/ -> (shared %s)@," pad name (E.to_string e)
        else begin
          E.Tbl.replace visited e ();
          Format.fprintf ppf "%s%s/@," pad name;
          List.iter
            (fun (a, child) ->
              go ppf (indent + 2, N.atom_to_string a, child))
            (readdir t e)
        end
    | `File -> Format.fprintf ppf "%s%s@," pad name
    | `Other -> Format.fprintf ppf "%s%s (activity)@," pad name
    | `Missing -> Format.fprintf ppf "%s%s (dangling)@," pad name
  in
  Format.fprintf ppf "@[<v>";
  go ppf (0, "/", t.root);
  Format.fprintf ppf "@]"
