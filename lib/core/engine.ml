type kind = [ `Interpreted | `Compiled ]
type t = Interpreted of Store.t | Compiled of Compiled.t

let create kind store =
  match kind with
  | `Interpreted -> Interpreted store
  | `Compiled -> Compiled (Compiled.of_store store)

let parse_kind = function
  | "interpreted" -> Ok `Interpreted
  | "compiled" -> Ok `Compiled
  | s -> Error (Printf.sprintf "%S: expected interpreted, compiled" s)

let env_var = "NAMING_ENGINE"

(* Read once, when the module initialises: [select] runs on every
   resolve RPC and replayed check, and on pool workers too, so the
   parsed value is a plain immutable one (forcing a [Lazy.t] from two
   domains at once raises [Lazy.Undefined]). A bad value is kept as its
   message and raised by each [env_kind] call. *)
let env_request =
  match Sys.getenv_opt env_var with
  | None | Some "" -> Ok None
  | Some s -> (
      match parse_kind s with
      | Ok k -> Ok (Some k)
      | Error msg -> Error (env_var ^ "=" ^ msg))

let env_kind () =
  match env_request with Ok k -> k | Error msg -> invalid_arg msg

(* Inside a read-only section other domains may be reading the store,
   so its own engine (which builds tables as walks reach them) is not
   handed out there: the stateless interpreter is. *)
let of_env store =
  match env_kind () with
  | Some `Interpreted -> Interpreted store
  | Some `Compiled | None ->
      if Store.is_read_only store then Interpreted store
      else Compiled (Compiled.of_store store)

let select ?engine store =
  match engine with Some e -> e | None -> of_env store

let kind = function Interpreted _ -> `Interpreted | Compiled _ -> `Compiled
let label = function Interpreted _ -> "interpreted" | Compiled _ -> "compiled"
let store = function Interpreted s -> s | Compiled c -> Compiled.store c

let resolve t ctx name =
  match t with
  | Interpreted s -> Resolver.resolve s ctx name
  | Compiled c -> Compiled.resolve c ctx name

let resolve_in t o name =
  match t with
  | Interpreted s -> Resolver.resolve_in s o name
  | Compiled c -> Compiled.resolve_in c o name

(* The shard protocol, in one place: refresh on the owning domain (so no
   shard ever patches), fan out with the store frozen and one shard per
   participant — the shared interpreter, or a compiled snapshot that
   shares the tables — then, back on the owning domain, build the tables
   the shards walked into without finding. *)
let map_sharded ?jobs t f xs =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  match (Pool.shared ~jobs (), t) with
  | None, _ -> List.map (f t) xs
  | Some pool, Interpreted store ->
      Store.read_only store (fun () ->
          fst (Pool.map_local ~jobs pool ~local:(fun () -> t) f xs))
  | Some pool, Compiled c ->
      Compiled.refresh c;
      let ys, shards =
        Store.read_only (Compiled.store c) (fun () ->
            Pool.map_local ~jobs pool
              ~local:(fun () ->
                let s = Compiled.snapshot c in
                (s, Compiled s))
              (fun (_, shard) x -> f shard x)
              xs)
      in
      Compiled.adopt c (List.map fst shards);
      ys
