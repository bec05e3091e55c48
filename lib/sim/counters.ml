type 'k schema = { mutable names : string array; mutable live : bool }
type 'k key = int

(* Live counters and snapshots share a representation; the interface
   keeps snapshots read-only. *)
type 'k t = { schema : 'k schema; counts : int array }
type 'k snapshot = 'k t

let schema () = { names = [||]; live = false }

let key s name =
  if s.live then invalid_arg ("Counters.key: schema already in use: " ^ name);
  if Array.mem name s.names then
    invalid_arg ("Counters.key: duplicate counter " ^ name);
  s.names <- Array.append s.names [| name |];
  Array.length s.names - 1

let create s =
  s.live <- true;
  { schema = s; counts = Array.make (Array.length s.names) 0 }

let incr t k = t.counts.(k) <- t.counts.(k) + 1
let snapshot t = { t with counts = Array.copy t.counts }
let get t k = t.counts.(k)

let sum = function
  | [] -> invalid_arg "Counters.sum: no snapshots"
  | first :: rest ->
      let counts = Array.copy first.counts in
      List.iter
        (fun s ->
          if s.schema != first.schema then
            invalid_arg "Counters.sum: snapshots of different schemas";
          Array.iteri (fun i v -> counts.(i) <- counts.(i) + v) s.counts)
        rest;
      { first with counts }

let to_json t =
  Naming.Json.Obj
    (List.mapi
       (fun i name -> (name, Naming.Json.Int t.counts.(i)))
       (Array.to_list t.schema.names))

let pp ppf t =
  Array.iteri
    (fun i name ->
      if i > 0 then Format.pp_print_char ppf ' ';
      Format.fprintf ppf "%s=%d" name t.counts.(i))
    t.schema.names
