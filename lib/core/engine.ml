type kind = [ `Interpreted | `Compiled ]
type t = Interpreted of Store.t | Compiled of Compiled.t

let create kind store =
  match kind with
  | `Interpreted -> Interpreted store
  | `Compiled -> Compiled (Compiled.compile store)

let parse_kind = function
  | "interpreted" -> Ok `Interpreted
  | "compiled" -> Ok `Compiled
  | s -> Error (Printf.sprintf "%S: expected interpreted, compiled" s)

let env_var = "NAMING_ENGINE"

let env_kind () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> None
  | Some s -> (
      match parse_kind s with
      | Ok k -> Some k
      | Error msg -> invalid_arg (env_var ^ "=" ^ msg))

let of_env ?(default = `Interpreted) store =
  let kind = match env_kind () with Some k -> k | None -> default in
  create kind store

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

let resolve_trace_into buf t store ctx name =
  match t with
  | Interpreted _ -> Resolver.resolve_trace_into buf store ctx name
  | Compiled c -> Compiled.resolve_trace_into buf c ctx name

let prepare = function
  | Interpreted _ -> ()
  | Compiled c -> Compiled.refresh c

let shard = function
  | Interpreted _ as t -> t
  | Compiled c -> Compiled (Compiled.snapshot c)

let compiled = function Compiled c -> Some c | Interpreted _ -> None
