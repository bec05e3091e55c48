type step = { at : Entity.t; atom : Name.atom; target : Entity.t }
type trace = step list

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

let resolve_trace store ctx name =
  let rec go steps at ctx atoms =
    match atoms with
    | [] -> assert false
    | [ a ] ->
        let e = Context.lookup ctx a in
        (e, List.rev ({ at; atom = a; target = e } :: steps))
    | a :: rest -> (
        let e = Context.lookup ctx a in
        let steps = { at; atom = a; target = e } :: steps in
        match Store.context_of store e with
        | Some next_ctx -> go steps e next_ctx rest
        | None -> (Entity.undefined, List.rev steps))
  in
  go [] Entity.undefined ctx (Name.atoms name)

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
