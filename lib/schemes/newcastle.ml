module N = Naming.Name
module E = Naming.Entity
module S = Naming.Store

type entry = {
  fs : Vfs.Fs.t;
  ups : int;  (* '..' steps from the machine root to the super-root *)
  path_from_super : N.t;  (* path from the super-root down to the machine *)
}

type t = {
  env : Process_env.t;
  super : E.t;
  machines : (string * entry) list;
}

let build ~machines store =
  if machines = [] then invalid_arg "Newcastle.build: no machines";
  let super = S.create_context_object ~label:"super-root" store in
  S.bind store ~dir:super N.self_atom super;
  S.bind store ~dir:super N.parent_atom super;
  let fss =
    List.map
      (fun m ->
        let fs = Vfs.Fs.create ~root_label:(m ^ ":/") store in
        Vfs.Fs.populate fs Unix_scheme.default_tree;
        S.bind store ~dir:super (N.atom m) (Vfs.Fs.root fs);
        (* '..' above the machine root reaches the super-root. *)
        S.bind store ~dir:(Vfs.Fs.root fs) N.parent_atom super;
        (m, { fs; ups = 1; path_from_super = N.singleton (N.atom m) }))
      machines
  in
  { env = Process_env.create store; super; machines = fss }

let env t = t.env
let store t = Process_env.store t.env
let super_root t = t.super
let machines t = List.map fst t.machines

let entry_of t m =
  match List.assoc_opt m t.machines with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Newcastle: unknown machine %S" m)

let fs_of t m = (entry_of t m).fs
let machine_root t m = Vfs.Fs.root (fs_of t m)

let join store systems =
  if List.length systems < 2 then
    invalid_arg "Newcastle.join: need at least two systems";
  let super = S.create_context_object ~label:"joined-super-root" store in
  S.bind store ~dir:super N.self_atom super;
  S.bind store ~dir:super N.parent_atom super;
  let machines =
    List.concat_map
      (fun (sys_name, t) ->
        S.bind store ~dir:super (N.atom sys_name) t.super;
        (* the old super-root now has a parent of its own *)
        S.bind store ~dir:t.super N.parent_atom super;
        List.map
          (fun (m, entry) ->
            ( sys_name ^ "." ^ m,
              {
                entry with
                ups = entry.ups + 1;
                path_from_super =
                  N.cons (N.atom sys_name) entry.path_from_super;
              } ))
          t.machines)
      systems
  in
  let env =
    (* all systems share one store; reuse the first system's environment so
       that existing processes keep working in the joined system *)
    match systems with (_, t) :: _ -> t.env | [] -> assert false
  in
  { env; super; machines }

let spawn_on ?label t ~machine =
  let r = machine_root t machine in
  let label = match label with Some l -> Some l | None -> Some machine in
  Process_env.spawn ?label ~root:r ~cwd:r t.env

let machine_of t a =
  let r = Process_env.root_of t.env a in
  match
    List.find_opt (fun (_m, e) -> E.equal (Vfs.Fs.root e.fs) r) t.machines
  with
  | Some (m, _) -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Newcastle.machine_of: %s has a non-machine root"
           (E.to_string a))

type exec_policy = Invoker_root | Remote_root

let remote_exec ?label t ~parent ~machine ~policy =
  let root =
    match policy with
    | Invoker_root -> Process_env.root_of t.env parent
    | Remote_root -> machine_root t machine
  in
  let child = Process_env.fork ?label t.env ~parent in
  Process_env.set_root t.env child root;
  Process_env.set_cwd t.env child root;
  child

let map_name t ~from_machine ~to_machine name =
  let from_entry = entry_of t from_machine in
  let to_entry = entry_of t to_machine in
  if not (N.is_absolute name) then name
  else
    (* climb from [to_machine]'s root to the super-root, then walk down to
       [from_machine]'s root *)
    let ups = List.init to_entry.ups (fun _ -> N.parent_atom) in
    let prefix =
      N.append
        (N.of_atoms (N.root_atom :: ups))
        from_entry.path_from_super
    in
    match N.tail name with None -> prefix | Some rest -> N.append prefix rest

let rule t = Process_env.rule t.env
let resolve t ~as_ s = Process_env.resolve_str t.env ~as_ s

let absolute_probes ?(max_depth = 6) t ~machine =
  let st = store t in
  let root = machine_root t machine in
  match S.context_of st root with
  | None -> []
  | Some ctx ->
      let names = Naming.Graph.all_names st ctx ~max_depth:(max_depth - 1) () in
      N.singleton N.root_atom
      :: List.map (fun (n, _e) -> N.cons N.root_atom n) names
