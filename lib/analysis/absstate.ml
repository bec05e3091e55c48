module Sc = Workload.Script
module Smap = Map.Make (String)

type value = Bot | Node of int
type step = { at : value; atom : string; target : value }
type stale = { binding : string; unbound_at : int }
type kind = Dir | File

type node = { kind : kind; label : string; mutable entries : int Smap.t }

type proc = {
  plabel : string;
  parent : int option;
  mutable bindings : int Smap.t;
  mutable retired : int Smap.t;  (* binding -> op index of the unbind *)
}

type t = {
  nodes : (int, node) Hashtbl.t;
  mutable next_node : int;
  root : int;
  procs : (int, proc) Hashtbl.t;
  mutable n_procs : int;
  mutable rev_skips : Sc.skip list;
}

let node t id = Hashtbl.find t.nodes id

let new_node t kind label =
  let id = t.next_node in
  t.next_node <- id + 1;
  Hashtbl.replace t.nodes id { kind; label; entries = Smap.empty };
  id

(* Mirror of [Fs.add_dots]: every directory carries "." and ".." as
   ordinary entries (script worlds are created with dots). *)
let new_dir t label ~parent =
  let id = new_node t Dir label in
  let n = node t id in
  n.entries <- Smap.add "." id (Smap.add ".." parent n.entries);
  id

let create () =
  let t =
    {
      nodes = Hashtbl.create 64;
      next_node = 0;
      root = 0;
      procs = Hashtbl.create 16;
      n_procs = 0;
      rev_skips = [];
    }
  in
  ignore (new_dir t "/" ~parent:0 : int);
  t

let root t = t.root
let n_nodes t = Hashtbl.length t.nodes

let n_dirs t =
  Hashtbl.fold (fun _ n acc -> if n.kind = Dir then acc + 1 else acc) t.nodes 0
let n_procs t = t.n_procs
let mem_proc t i = Hashtbl.mem t.procs i
let proc t i = Hashtbl.find t.procs i
let proc_label t i = (proc t i).plabel
let proc_parent t i = (proc t i).parent
let skips t = List.rev t.rev_skips
let equal_value a b = match (a, b) with
  | Bot, Bot -> true
  | Node i, Node j -> i = j
  | Bot, Node _ | Node _, Bot -> false

(* ------------------------------------------------------------------ *)
(* Path parsing: mirror of [Naming.Name.of_string].                    *)

let parse_path s =
  if String.equal s "" then Error "empty name"
  else
    let parts = String.split_on_char '/' s in
    let absolute = Char.equal s.[0] '/' in
    let comps = List.filter (fun c -> not (String.equal c "")) parts in
    match (absolute, comps) with
    | true, l -> Ok ("/" :: l)
    | false, [] -> Error (Printf.sprintf "name %S has no components" s)
    | false, l -> Ok l

let path_to_string = function
  | [ "/" ] -> "/"
  | "/" :: rest -> "/" ^ String.concat "/" rest
  | atoms -> String.concat "/" atoms

(* Mirror of [Fs.relative_atoms]: atoms resolved from the root. *)
let relative_atoms atoms =
  match atoms with "/" :: rest -> rest | l -> l

let valid_atom s =
  String.equal s "/" || ((not (String.equal s "")) && not (String.contains s '/'))

(* ------------------------------------------------------------------ *)
(* Resolution: mirror of [Naming.Resolver.resolve_trace].              *)

let resolve_in t bindings atoms =
  let look b a = match Smap.find_opt a b with Some id -> Node id | None -> Bot in
  let rec go at bindings atoms rev_trace =
    match atoms with
    | [] -> (Bot, List.rev rev_trace)
    | [ a ] ->
        let e = look bindings a in
        (e, List.rev ({ at; atom = a; target = e } :: rev_trace))
    | a :: rest -> (
        let e = look bindings a in
        let rev_trace = { at; atom = a; target = e } :: rev_trace in
        match e with
        | Node id when (node t id).kind = Dir ->
            go e (node t id).entries rest rev_trace
        | Node _ | Bot -> (Bot, List.rev rev_trace))
  in
  go Bot bindings atoms []

let resolve_at t ~dir atoms =
  match node t dir with
  | { kind = Dir; entries; _ } -> resolve_in t entries atoms
  | { kind = File; _ } -> (Bot, [])
  | exception Not_found -> (Bot, [])

let lookup_path t path =
  match parse_path path with
  | Error _ -> (Bot, [])
  | Ok atoms -> (
      match relative_atoms atoms with
      | [] -> (Node t.root, [])
      | l -> resolve_at t ~dir:t.root l)

let parent_dir_of t path =
  match parse_path path with
  | Error _ -> Bot
  | Ok atoms -> (
      match List.rev (relative_atoms atoms) with
      | [] | [ _ ] -> Node t.root
      | _ :: rev_parent -> (
          match resolve_at t ~dir:t.root (List.rev rev_parent) with
          | Node id, _ when (node t id).kind = Dir -> Node id
          | _ -> Bot))

let resolve_proc t i atoms =
  let p = proc t i in
  let head = List.hd atoms in
  let dispatched =
    if String.equal head "/" then atoms
    else if Smap.mem head p.bindings then atoms
    else "." :: atoms
  in
  let stale =
    if (not (Smap.mem head p.bindings)) && Smap.mem head p.retired then
      Some { binding = head; unbound_at = Smap.find head p.retired }
    else None
  in
  let v, trace = resolve_in t p.bindings dispatched in
  (v, trace, stale)

(* ------------------------------------------------------------------ *)
(* Op interpretation: mirror of [Workload.Script.apply_checked].       *)

let no_proc idx = Error (Printf.sprintf "no process %d" idx)
let no_dir path = Error (Printf.sprintf "%s is not a directory" path)

let mkdir t ~under name =
  let u = node t under in
  match Smap.find_opt name u.entries with
  | Some id when (node t id).kind = Dir -> Ok id
  | Some _ ->
      Error (Printf.sprintf "Fs.mkdir: %s exists and is a file" name)
  | None ->
      let id = new_dir t name ~parent:under in
      u.entries <- Smap.add name id u.entries;
      Ok id

let mkdir_atoms t atoms =
  List.fold_left
    (fun acc a -> Result.bind acc (fun dir -> mkdir t ~under:dir a))
    (Ok t.root) atoms

let mkdir_path t path =
  Result.bind (parse_path path) (fun atoms ->
      mkdir_atoms t (relative_atoms atoms))

let add_file t path =
  Result.bind (parse_path path) (fun atoms ->
      match List.rev (relative_atoms atoms) with
      | [] -> Error "Fs.add_file: path names the root"
      | base :: rev_dirs ->
          Result.bind (mkdir_atoms t (List.rev rev_dirs)) (fun dir ->
              let d = node t dir in
              match Smap.find_opt base d.entries with
              | Some id when (node t id).kind = Dir ->
                  Error
                    (Printf.sprintf "Fs.add_file: %s is an existing directory"
                       path)
              | Some id -> Ok id
              | None ->
                  let id = new_node t File base in
                  d.entries <- Smap.add base id d.entries;
                  Ok id))

let dir_of_path t path =
  (* Mirror of [Script.dir_at_checked]: resolve and require a directory. *)
  match parse_path path with
  | Error msg -> Error msg
  | Ok _ -> (
      match lookup_path t path with
      | Node id, _ when (node t id).kind = Dir -> Ok id
      | _ -> no_dir path)

let new_proc t ?parent ~label bindings retired =
  let i = t.n_procs in
  t.n_procs <- i + 1;
  Hashtbl.replace t.procs i { plabel = label; parent; bindings; retired }

let apply_op t ~index op =
  match op with
  | Sc.Mkdir path -> Result.map ignore (mkdir_path t path)
  | Sc.Add_file (path, _content) -> Result.map ignore (add_file t path)
  | Sc.Write (path, _content) -> (
      match lookup_path t path with
      | Node id, _ when (node t id).kind = File -> Ok ()
      | _ -> (
          match parse_path path with
          | Error msg -> Error msg
          | Ok _ -> Error (Printf.sprintf "%s is not a file" path)))
  | Sc.Unlink path -> (
      match parse_path path with
      | Error msg -> Error msg
      | Ok atoms -> (
          match List.rev atoms with
          | [] | [ _ ] -> Error (Printf.sprintf "%s has no parent" path)
          | last :: rev_parent -> (
              let parent_atoms = List.rev rev_parent in
              let parent =
                match parent_atoms with
                | [ "/" ] -> Ok t.root
                | _ -> (
                    match
                      resolve_at t ~dir:t.root (relative_atoms parent_atoms)
                    with
                    | Node id, _ when (node t id).kind = Dir -> Ok id
                    | _ -> no_dir (path_to_string parent_atoms))
              in
              match parent with
              | Error _ as e -> e
              | Ok dir ->
                  let d = node t dir in
                  d.entries <- Smap.remove last d.entries;
                  Ok ())))
  | Sc.Spawn label ->
      let bindings = Smap.add "/" t.root (Smap.add "." t.root Smap.empty) in
      new_proc t ~label bindings Smap.empty;
      Ok ()
  | Sc.Fork idx ->
      if mem_proc t idx then begin
        let p = proc t idx in
        new_proc t ~parent:idx ~label:(p.plabel ^ "'") p.bindings p.retired;
        Ok ()
      end
      else no_proc idx
  | Sc.Chdir (idx, path) ->
      if not (mem_proc t idx) then no_proc idx
      else
        Result.map
          (fun dir ->
            let p = proc t idx in
            p.bindings <- Smap.add "." dir p.bindings)
          (dir_of_path t path)
  | Sc.Chroot (idx, path) ->
      if not (mem_proc t idx) then no_proc idx
      else
        Result.map
          (fun dir ->
            let p = proc t idx in
            p.bindings <- Smap.add "/" dir p.bindings)
          (dir_of_path t path)
  | Sc.Bind (idx, name, path) ->
      if not (mem_proc t idx) then no_proc idx
      else
        Result.bind (dir_of_path t path) (fun dir ->
            if not (valid_atom name) then
              Error
                (if String.equal name "" then "empty atom"
                 else Printf.sprintf "atom %S contains '/'" name)
            else begin
              let p = proc t idx in
              p.bindings <- Smap.add name dir p.bindings;
              p.retired <- Smap.remove name p.retired;
              Ok ()
            end)
  | Sc.Unbind (idx, name) ->
      if not (mem_proc t idx) then no_proc idx
      else if not (valid_atom name) then
        Error
          (if String.equal name "" then "empty atom"
           else Printf.sprintf "atom %S contains '/'" name)
      else begin
        let p = proc t idx in
        if Smap.mem name p.bindings then begin
          p.bindings <- Smap.remove name p.bindings;
          p.retired <- Smap.add name index p.retired
        end;
        Ok ()
      end

let apply t ~index op =
  match apply_op t ~index op with
  | Ok () -> Ok ()
  | Error reason ->
      t.rev_skips <- { Sc.index; op; reason } :: t.rev_skips;
      Error reason

(* ------------------------------------------------------------------ *)

(* Node ids are dense (0 .. next_node - 1), so an array indexed by id
   holds every label. *)
type labels = string array

let labels t = Array.init t.next_node (fun id -> (node t id).label)

let value_to_string labels = function
  | Bot -> "⊥"
  | Node id -> "n" ^ string_of_int id ^ ":" ^ labels.(id)

let trace_to_string labels trace =
  let step { at; atom; target } =
    (match at with Bot -> atom | Node _ -> value_to_string labels at ^ "." ^ atom)
    ^ " → " ^ value_to_string labels target
  in
  String.concat "; " (List.map step trace)
