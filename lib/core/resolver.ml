type step = { at : Entity.t; atom : Name.atom; target : Entity.t }
type trace = step list

(* A reusable trace buffer: callers that resolve many names (coherence
   sweeps, the static analyzers) push steps into one growable array
   instead of consing a fresh list per resolution. *)
type buffer = { mutable steps : step array; mutable len : int }

let dummy_step =
  { at = Entity.undefined; atom = Name.root_atom; target = Entity.undefined }

let create_buffer () = { steps = Array.make 16 dummy_step; len = 0 }
let buffer_clear b = b.len <- 0
let buffer_length b = b.len

let buffer_push b s =
  let cap = Array.length b.steps in
  if b.len >= cap then begin
    let bigger = Array.make (2 * cap) dummy_step in
    Array.blit b.steps 0 bigger 0 cap;
    b.steps <- bigger
  end;
  b.steps.(b.len) <- s;
  b.len <- b.len + 1

let buffer_trace b = Array.to_list (Array.sub b.steps 0 b.len)

(* The success path allocates nothing: it walks the atom list, looking
   each atom up in the current context and stepping through the store. *)
let resolve store ctx name =
  let rec go ctx atoms =
    match atoms with
    | [] -> assert false
    | [ a ] -> Context.lookup ctx a
    | a :: rest -> (
        let e = Context.lookup ctx a in
        match Store.context_of store e with
        | Some next_ctx -> go next_ctx rest
        | None -> Entity.undefined)
  in
  go ctx (Name.atoms name)

let resolve_trace_into buf store ctx name =
  buffer_clear buf;
  let rec go at ctx atoms =
    match atoms with
    | [] -> assert false
    | [ a ] ->
        let e = Context.lookup ctx a in
        buffer_push buf { at; atom = a; target = e };
        e
    | a :: rest -> (
        let e = Context.lookup ctx a in
        buffer_push buf { at; atom = a; target = e };
        match Store.context_of store e with
        | Some next_ctx -> go e next_ctx rest
        | None -> Entity.undefined)
  in
  go Entity.undefined ctx (Name.atoms name)

let resolve_trace store ctx name =
  let buf = create_buffer () in
  let e = resolve_trace_into buf store ctx name in
  (e, buffer_trace buf)

let resolve_in store o name =
  match Store.context_of store o with
  | Some c -> resolve store c name
  | None -> Entity.undefined

let resolve_str store ctx s = resolve store ctx (Name.of_string s)

let deref store ctx name ~prefix =
  let atoms = Name.atoms name in
  let len = List.length atoms in
  if prefix < 1 || prefix > len then
    invalid_arg
      (Printf.sprintf "Resolver.deref: prefix %d out of range [1;%d]" prefix
         len);
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | a :: rest -> a :: take (k - 1) rest
  in
  resolve store ctx (Name.of_atoms (take prefix atoms))

let pp_trace store ppf trace =
  let pp_step ppf { at; atom; target } =
    if Entity.is_undefined at then
      Format.fprintf ppf "%a → %a" Name.pp_atom atom (Store.pp_entity store)
        target
    else
      Format.fprintf ppf "%a.%a → %a" (Store.pp_entity store) at Name.pp_atom
        atom (Store.pp_entity store) target
  in
  Format.fprintf ppf "@[<h>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_step)
    trace
