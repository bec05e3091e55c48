(* Keyed by interned symbol id ({!Name.Atom_id_map}): lookup on the
   resolution hot path costs integer comparisons only. The documented
   orderings (bindings, fold, iter) are string order, so observable
   behaviour is unchanged from the string-keyed representation. *)

type t = Entity.t Name.Atom_id_map.t

let empty = Name.Atom_id_map.empty

let bind c a e =
  if Entity.is_undefined e then Name.Atom_id_map.remove a c
  else Name.Atom_id_map.add a e c

let of_bindings l = List.fold_left (fun c (a, e) -> bind c a e) empty l

(* find + Not_found rather than find_opt: no [Some] allocation on the
   resolution hot path. *)
let lookup c a =
  match Name.Atom_id_map.find a c with
  | e -> e
  | exception Not_found -> Entity.undefined

let mem c a = Name.Atom_id_map.mem a c
let unbind c a = Name.Atom_id_map.remove a c

let bindings c =
  List.sort
    (fun (a1, _) (a2, _) -> Name.atom_compare a1 a2)
    (Name.Atom_id_map.bindings c)

let cardinal = Name.Atom_id_map.cardinal
let is_empty = Name.Atom_id_map.is_empty

let union ~prefer c1 c2 =
  let pick _a e1 e2 =
    match prefer with `Left -> Some e1 | `Right -> Some e2
  in
  Name.Atom_id_map.union pick c1 c2

let restrict c atoms =
  List.fold_left
    (fun acc a ->
      match Name.Atom_id_map.find_opt a c with
      | None -> acc
      | Some e -> Name.Atom_id_map.add a e acc)
    empty atoms

let map f c =
  Name.Atom_id_map.fold (fun a e acc -> bind acc a (f e)) c empty

let agree_on c1 c2 a = Entity.equal (lookup c1 a) (lookup c2 a)
let equal = Name.Atom_id_map.equal Entity.equal

let compare c1 c2 =
  (* Total order over the string-ordered binding lists, so the ordering is
     independent of interning order. *)
  List.compare
    (fun (a1, e1) (a2, e2) ->
      match Name.atom_compare a1 a2 with
      | 0 -> Entity.compare e1 e2
      | c -> c)
    (bindings c1) (bindings c2)

let pp ppf c =
  let pp_binding ppf (a, e) =
    Format.fprintf ppf "%a ↦ %a" Name.pp_atom a Entity.pp e
  in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_binding)
    (bindings c)

let fold f c init =
  List.fold_left (fun acc (a, e) -> f a e acc) init (bindings c)

let iter f c = List.iter (fun (a, e) -> f a e) (bindings c)
let iter_unordered f c = Name.Atom_id_map.iter f c
let exists p c = Name.Atom_id_map.exists p c
