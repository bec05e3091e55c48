module N = Naming.Name
module E = Naming.Entity
module S = Naming.Store

let global_atom = "..."
let cell_atom = ".:"

type t = {
  env : Process_env.t;
  global_fs : Vfs.Fs.t;
  cells : (string * E.t) list;  (** cell name → cell directory *)
  machines : (string * (string * Vfs.Fs.t)) list;
      (** machine → (cell, local fs) *)
}

let local_tree = [ "tmp/"; "opt/site.conf" ]

let cell_tree =
  [ "services/print"; "services/auth"; "profiles/default"; "hosts/gateway" ]

let global_tree = [ "registry/orgs.txt" ]

let build ~cells store =
  if cells = [] then invalid_arg "Dce.build: no cells";
  let global_fs = Vfs.Fs.create ~root_label:"gds:/" store in
  Vfs.Fs.populate global_fs global_tree;
  let cell_dirs =
    List.map
      (fun (cell, _machines) ->
        let dir = Vfs.Fs.mkdir_path global_fs ("cells/" ^ cell) in
        let sub = Vfs.Fs.of_root store dir in
        Vfs.Fs.populate sub cell_tree;
        (cell, dir))
      cells
  in
  let machines =
    List.concat_map
      (fun (cell, machine_names) ->
        List.map
          (fun m ->
            let fs = Vfs.Fs.create ~root_label:(m ^ ":/") store in
            Vfs.Fs.populate fs local_tree;
            Vfs.Fs.link fs ~dir:(Vfs.Fs.root fs) global_atom
              (Vfs.Fs.root global_fs);
            let cell_dir = List.assoc cell cell_dirs in
            Vfs.Fs.link fs ~dir:(Vfs.Fs.root fs) cell_atom cell_dir;
            (m, (cell, fs)))
          machine_names)
      cells
  in
  { env = Process_env.create store; global_fs; cells = cell_dirs; machines }

let env t = t.env
let store t = Process_env.store t.env
let cells t = List.map fst t.cells
let machines t = List.map fst t.machines

let machine_entry t m =
  match List.assoc_opt m t.machines with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Dce: unknown machine %S" m)

let cell_of_machine t m = fst (machine_entry t m)
let machine_root t m = Vfs.Fs.root (snd (machine_entry t m))

let cell_dir t c =
  match List.assoc_opt c t.cells with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Dce: unknown cell %S" c)

let global_root t = Vfs.Fs.root t.global_fs

let add_local_context t ~machine ~name ~dir =
  if not (S.is_context_object (store t) dir) then
    invalid_arg "Dce.add_local_context: not a directory";
  S.bind (store t) ~dir:(machine_root t machine) (N.atom name) dir

let spawn_on ?label t ~machine =
  let r = machine_root t machine in
  let label = match label with Some l -> Some l | None -> Some machine in
  Process_env.spawn ?label ~root:r ~cwd:r t.env

let rule t = Process_env.rule t.env
let resolve t ~as_ s = Process_env.resolve_str t.env ~as_ s

let names_under t dir ~max_depth =
  match S.context_of (store t) dir with
  | None -> []
  | Some ctx -> Naming.Graph.all_names (store t) ctx ~max_depth ()

let cell_relative_probes ?(max_depth = 6) t ~cell =
  let dir = cell_dir t cell in
  let prefix = N.of_strings [ "/"; cell_atom ] in
  prefix
  :: List.map
       (fun (n, _e) -> N.append prefix n)
       (names_under t dir ~max_depth:(max_depth - 2))

let global_probes ?(max_depth = 6) t =
  let prefix = N.of_strings [ "/"; global_atom ] in
  prefix
  :: List.map
       (fun (n, _e) -> N.append prefix n)
       (names_under t (global_root t) ~max_depth:(max_depth - 2))

let map_cell_name t ~cell name =
  ignore (cell_dir t cell);
  let cell_prefix = N.of_strings [ "/"; cell_atom ] in
  match N.drop_prefix ~prefix:cell_prefix name with
  | None ->
      if N.equal name cell_prefix then
        N.of_strings [ "/"; global_atom; "cells"; cell ]
      else name
  | Some rest ->
      N.append (N.of_strings [ "/"; global_atom; "cells"; cell ]) rest
