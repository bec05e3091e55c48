module N = Naming.Name
module E = Naming.Entity
module S = Naming.Store

type op =
  | Mkdir of string
  | Add_file of string * string
  | Write of string * string
  | Unlink of string
  | Spawn of string
  | Fork of int
  | Chdir of int * string
  | Chroot of int * string
  | Bind of int * string * string
  | Unbind of int * string

type world = {
  fs : Vfs.Fs.t;
  env : Schemes.Process_env.t;
  mutable procs : E.t array;  (* spawn order; slots from [n_procs] on are free *)
  mutable n_procs : int;
}

let new_world store =
  {
    fs = Vfs.Fs.create store;
    env = Schemes.Process_env.create store;
    procs = [||];
    n_procs = 0;
  }

let fs w = w.fs
let env w = w.env
let process_count w = w.n_procs
let processes w = List.init w.n_procs (Array.get w.procs)
let proc w idx =
  if idx >= 0 && idx < w.n_procs then Some w.procs.(idx) else None

let add_proc w p =
  if w.n_procs = Array.length w.procs then begin
    let grown = Array.make (max 8 (2 * w.n_procs)) p in
    Array.blit w.procs 0 grown 0 w.n_procs;
    w.procs <- grown
  end;
  w.procs.(w.n_procs) <- p;
  w.n_procs <- w.n_procs + 1

let dir_at w path =
  let e = Vfs.Fs.lookup w.fs path in
  if S.is_context_object (Vfs.Fs.store w.fs) e then Some e else None

let no_proc idx = Error (Printf.sprintf "no process %d" idx)
let no_dir path = Error (Printf.sprintf "%s is not a directory" path)

let dir_at_checked w path =
  match dir_at w path with
  | Some d -> Ok d
  | None -> no_dir path
  | exception N.Invalid msg -> Error msg

let apply_checked w op =
  match op with
  | Mkdir path -> (
      match Vfs.Fs.mkdir_path w.fs path with
      | (_ : E.t) -> Ok ()
      | exception Invalid_argument msg -> Error msg
      | exception N.Invalid msg -> Error msg)
  | Add_file (path, content) -> (
      match Vfs.Fs.add_file w.fs path ~content with
      | (_ : E.t) -> Ok ()
      | exception Invalid_argument msg -> Error msg
      | exception N.Invalid msg -> Error msg)
  | Write (path, content) -> (
      match
        let e = Vfs.Fs.lookup w.fs path in
        Vfs.Fs.write w.fs e content
      with
      | () -> Ok ()
      | exception Invalid_argument _ ->
          Error (Printf.sprintf "%s is not a file" path)
      | exception N.Invalid msg -> Error msg)
  | Unlink path -> (
      match N.of_string path with
      | exception N.Invalid msg -> Error msg
      | n -> (
          match N.parent n with
          | Some parent_name -> (
              let parent =
                if N.equal parent_name (N.singleton N.root_atom) then
                  Some (Vfs.Fs.root w.fs)
                else dir_at w (N.to_string parent_name)
              in
              match parent with
              | Some dir ->
                  Vfs.Fs.unlink w.fs ~dir (N.atom_to_string (N.last n));
                  Ok ()
              | None -> no_dir (N.to_string parent_name))
          | None -> Error (Printf.sprintf "%s has no parent" path)))
  | Spawn label ->
      let p =
        Schemes.Process_env.spawn ~label ~root:(Vfs.Fs.root w.fs) w.env
      in
      add_proc w p;
      Ok ()
  | Fork idx -> (
      match proc w idx with
      | Some parent ->
          let child = Schemes.Process_env.fork w.env ~parent in
          add_proc w child;
          Ok ()
      | None -> no_proc idx)
  | Chdir (idx, path) -> (
      match proc w idx with
      | None -> no_proc idx
      | Some p ->
          Result.map
            (fun d -> Schemes.Process_env.set_cwd w.env p d)
            (dir_at_checked w path))
  | Chroot (idx, path) -> (
      match proc w idx with
      | None -> no_proc idx
      | Some p ->
          Result.map
            (fun d -> Schemes.Process_env.set_root w.env p d)
            (dir_at_checked w path))
  | Bind (idx, name, path) -> (
      match proc w idx with
      | None -> no_proc idx
      | Some p ->
          Result.bind (dir_at_checked w path) (fun d ->
              match Schemes.Process_env.set_binding w.env p name d with
              | () -> Ok ()
              | exception N.Invalid msg -> Error msg))
  | Unbind (idx, name) -> (
      match proc w idx with
      | Some p -> (
          match Schemes.Process_env.remove_binding w.env p name with
          | () -> Ok ()
          | exception N.Invalid msg -> Error msg)
      | None -> no_proc idx)

let apply w op = ignore (apply_checked w op : (unit, string) result)

type skip = { index : int; op : op; reason : string }

exception Skipped of skip

let run ?(strict = false) w ops =
  List.iteri
    (fun index op ->
      match apply_checked w op with
      | Ok () -> ()
      | Error reason -> if strict then raise (Skipped { index; op; reason }))
    ops

let run_report w ops =
  let rev_skips = ref [] in
  List.iteri
    (fun index op ->
      match apply_checked w op with
      | Ok () -> ()
      | Error reason -> rev_skips := { index; op; reason } :: !rev_skips)
    ops;
  List.rev !rev_skips

let paths = [| "/a"; "/a/b"; "/a/b/c"; "/d"; "/d/e"; "/f" |]
let binding_names = [| "mnt"; "vice"; "x" |]

let random_op w rng =
  let n_procs = process_count w in
  let path () = Dsim.Rng.pick_array rng paths in
  let idx () = Dsim.Rng.int rng (max 1 n_procs) in
  match Dsim.Rng.int rng 10 with
  | 0 -> Mkdir (path ())
  | 1 -> Add_file (path (), Printf.sprintf "c%d" (Dsim.Rng.int rng 100))
  | 2 -> Write (path (), Printf.sprintf "w%d" (Dsim.Rng.int rng 100))
  | 3 ->
      (* unlink files only: unbinding a directory orphans it with a stale
         '..' (a lint violation by design), as in Unix where unlink(2)
         does not apply to directories *)
      let p = path () in
      if Vfs.Fs.kind w.fs (Vfs.Fs.lookup w.fs p) = `File then Unlink p
      else Mkdir p
  | 4 -> Spawn (Printf.sprintf "p%d" n_procs)
  | 5 -> Fork (idx ())
  | 6 -> Chdir (idx (), path ())
  | 7 -> Chroot (idx (), path ())
  | 8 -> Bind (idx (), Dsim.Rng.pick_array rng binding_names, path ())
  | _ -> Unbind (idx (), Dsim.Rng.pick_array rng binding_names)

let random_ops w ~rng ~n =
  let first = Spawn "p0" in
  apply w first;
  first
  :: List.init (max 0 (n - 1)) (fun _ ->
         let op = random_op w rng in
         apply w op;
         op)

let pp_op ppf = function
  | Mkdir p -> Format.fprintf ppf "mkdir %s" p
  | Add_file (p, c) -> Format.fprintf ppf "add-file %s %S" p c
  | Write (p, c) -> Format.fprintf ppf "write %s %S" p c
  | Unlink p -> Format.fprintf ppf "unlink %s" p
  | Spawn l -> Format.fprintf ppf "spawn %s" l
  | Fork i -> Format.fprintf ppf "fork %d" i
  | Chdir (i, p) -> Format.fprintf ppf "chdir %d %s" i p
  | Chroot (i, p) -> Format.fprintf ppf "chroot %d %s" i p
  | Bind (i, n, p) -> Format.fprintf ppf "bind %d %s %s" i n p
  | Unbind (i, n) -> Format.fprintf ppf "unbind %d %s" i n

let op_to_string op = Format.asprintf "%a" pp_op op

let op_of_string line =
  let line = String.trim line in
  let fail () = Error (Printf.sprintf "unparseable op: %S" line) in
  let scan fmt k =
    match Scanf.sscanf line fmt k with
    | op -> Ok op
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> fail ()
  in
  match String.index_opt line ' ' with
  | None -> fail ()
  | Some i -> (
      match String.sub line 0 i with
      | "mkdir" -> scan "mkdir %s%!" (fun p -> Mkdir p)
      | "add-file" -> scan "add-file %s %S%!" (fun p c -> Add_file (p, c))
      | "write" -> scan "write %s %S%!" (fun p c -> Write (p, c))
      | "unlink" -> scan "unlink %s%!" (fun p -> Unlink p)
      | "spawn" -> scan "spawn %s%!" (fun l -> Spawn l)
      | "fork" -> scan "fork %d%!" (fun i -> Fork i)
      | "chdir" -> scan "chdir %d %s%!" (fun i p -> Chdir (i, p))
      | "chroot" -> scan "chroot %d %s%!" (fun i p -> Chroot (i, p))
      | "bind" -> scan "bind %d %s %s%!" (fun i n p -> Bind (i, n, p))
      | "unbind" -> scan "unbind %d %s%!" (fun i n -> Unbind (i, n))
      | _ -> fail ())

let pp_skip ppf { index; op; reason } =
  Format.fprintf ppf "op %d (%a) skipped: %s" index pp_op op reason
