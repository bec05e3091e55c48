module N = Naming.Name
module E = Naming.Entity

type t = { env : Process_env.t; fs : Vfs.Fs.t }

let default_tree =
  [
    "bin/ls";
    "bin/cat";
    "bin/sh";
    "etc/passwd";
    "etc/hosts";
    "usr/bin/cc";
    "usr/lib/libc.a";
    "usr/include/stdio.h";
    "home/alice/notes.txt";
    "home/alice/src/main.c";
    "home/bob/todo.txt";
    "tmp/";
    "dev/null";
  ]

let build ?(tree = default_tree) store =
  let fs = Vfs.Fs.create ~root_label:"/" store in
  Vfs.Fs.populate fs tree;
  { env = Process_env.create store; fs }

let build_distributed ~machines store =
  let fs = Vfs.Fs.create ~root_label:"/" store in
  List.iter
    (fun m ->
      Vfs.Fs.populate fs (List.map (fun spec -> m ^ "/" ^ spec) default_tree))
    machines;
  { env = Process_env.create store; fs }

let env t = t.env
let fs t = t.fs
let store t = Vfs.Fs.store t.fs
let root t = Vfs.Fs.root t.fs

let dir_at t path =
  let e = Vfs.Fs.lookup t.fs path in
  if not (Naming.Store.is_context_object (store t) e) then
    invalid_arg (Printf.sprintf "Unix_scheme: %S is not a directory" path);
  e

let spawn ?label ?cwd t =
  let cwd =
    match cwd with None -> root t | Some path -> dir_at t path
  in
  Process_env.spawn ?label ~root:(root t) ~cwd t.env

let spawn_chrooted ?label ~root_path t =
  let r = dir_at t root_path in
  Process_env.spawn ?label ~root:r ~cwd:r t.env

let fork ?label t ~parent = Process_env.fork ?label t.env ~parent

let chdir t a path =
  let e = Process_env.resolve_str t.env ~as_:a path in
  if not (Naming.Store.is_context_object (store t) e) then
    invalid_arg (Printf.sprintf "Unix_scheme.chdir: %S is not a directory" path);
  Process_env.set_cwd t.env a e

let rule t = Process_env.rule t.env

let resolve t ~as_ s = Process_env.resolve_str t.env ~as_ s

let absolute_probes ?(max_depth = 6) t =
  match Naming.Store.context_of (store t) (root t) with
  | None -> []
  | Some ctx ->
      let names =
        Naming.Graph.all_names (store t) ctx ~max_depth:(max_depth - 1) ()
      in
      N.singleton N.root_atom
      :: List.map (fun (n, _e) -> N.cons N.root_atom n) names
