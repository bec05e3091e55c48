module N = Naming.Name
module E = Naming.Entity
module S = Naming.Store

type t = {
  env : Process_env.t;
  shared_fs : Vfs.Fs.t;
  clients : (string * Vfs.Fs.t) list;
  attach : string;
  replication : Naming.Replication.t;
}

let default_local_tree =
  [ "home/user/notes.txt"; "home/user/src/main.c"; "tmp/"; "etc/fstab" ]

let default_shared_tree =
  [
    "pkg/tex/latex.fmt";
    "pkg/cc/cc1";
    "proj/apollo/plan.txt";
    "proj/apollo/src/nav.c";
    "users/alice/public/paper.tex";
  ]

let build ~clients ?(attach_name = "vice") store =
  if clients = [] then invalid_arg "Shared_graph.build: no clients";
  let shared_fs = Vfs.Fs.create ~root_label:"shared:/" store in
  Vfs.Fs.populate shared_fs default_shared_tree;
  let client_fss =
    List.map
      (fun c ->
        let fs = Vfs.Fs.create ~root_label:(c ^ ":/") store in
        Vfs.Fs.populate fs default_local_tree;
        Vfs.Fs.link fs ~dir:(Vfs.Fs.root fs) attach_name (Vfs.Fs.root shared_fs);
        (c, fs))
      clients
  in
  {
    env = Process_env.create store;
    shared_fs;
    clients = client_fss;
    attach = attach_name;
    replication = Naming.Replication.create ();
  }

let env t = t.env
let store t = Process_env.store t.env
let shared_fs t = t.shared_fs
let clients t = List.map fst t.clients
let attach_name t = t.attach
let replication t = t.replication

let client_fs t c =
  match List.assoc_opt c t.clients with
  | Some fs -> fs
  | None -> invalid_arg (Printf.sprintf "Shared_graph: unknown client %S" c)

let client_root t c = Vfs.Fs.root (client_fs t c)

let replicate_local t ~path ~content =
  let copies =
    List.map (fun (_c, fs) -> Vfs.Fs.add_file fs path ~content) t.clients
  in
  match copies with
  | [] | [ _ ] -> ()
  | _ -> Naming.Replication.declare t.replication copies

let spawn_on ?label t ~client =
  let r = client_root t client in
  let label = match label with Some l -> Some l | None -> Some client in
  Process_env.spawn ?label ~root:r ~cwd:r t.env

let remote_exec ?label t ~parent ~client =
  let child = Process_env.fork ?label t.env ~parent in
  let r = client_root t client in
  Process_env.set_root t.env child r;
  Process_env.set_cwd t.env child r;
  child

let rule t = Process_env.rule t.env
let resolve t ~as_ s = Process_env.resolve_str t.env ~as_ s

let shared_probes ?(max_depth = 6) t =
  let st = store t in
  match S.context_of st (Vfs.Fs.root t.shared_fs) with
  | None -> []
  | Some ctx ->
      let names = Naming.Graph.all_names st ctx ~max_depth:(max_depth - 2) () in
      let prefix = N.of_strings [ "/"; t.attach ] in
      prefix :: List.map (fun (n, _e) -> N.append prefix n) names

let local_probes ?(max_depth = 6) t ~client =
  let st = store t in
  let root = client_root t client in
  match S.context_of st root with
  | None -> []
  | Some ctx ->
      let skip a =
        N.atom_equal a N.self_atom
        || N.atom_equal a N.parent_atom
        || N.atom_equal a (N.atom t.attach)
      in
      let names =
        Naming.Graph.all_names st ctx ~max_depth:(max_depth - 1) ~skip ()
      in
      List.map (fun (n, _e) -> N.cons N.root_atom n) names
