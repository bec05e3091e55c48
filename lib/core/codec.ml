exception Parse_error of string

type error = { line : int; message : string }

(* Internal: carries the structured position until it reaches the public
   surface (either [Error] from [of_string_result] or a rendered
   [Parse_error] from [of_string]). *)
exception Err of error

let parse_error line fmt =
  Format.kasprintf (fun message -> raise (Err { line; message })) fmt

let header = "coherent-naming-store v1"

let entity_ref e =
  match e with
  | Entity.Undefined -> "!"
  | Entity.Activity i -> Printf.sprintf "a%d" i
  | Entity.Object i -> Printf.sprintf "o%d" i

let add_entity_ref buf e =
  match e with
  | Entity.Undefined -> Buffer.add_char buf '!'
  | Entity.Activity i ->
      Buffer.add_char buf 'a';
      Buffer.add_string buf (string_of_int i)
  | Entity.Object i ->
      Buffer.add_char buf 'o';
      Buffer.add_string buf (string_of_int i)

(* %S-compatible quoting, chunked: runs of characters that need no
   escape are blitted with one [add_substring] instead of a char-by-char
   walk. The escape set and forms must match [String.escaped] exactly —
   the parser reads these back with Scanf [%S], and golden dumps must
   not change. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let flush start stop =
    if stop > start then Buffer.add_substring buf s start (stop - start)
  in
  let rec go start i =
    if i = n then flush start i
    else
      let c = s.[i] in
      if c >= ' ' && c <= '~' && c <> '"' && c <> '\\' then go start (i + 1)
      else begin
        flush start i;
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\b' -> Buffer.add_string buf "\\b"
        | c ->
            Buffer.add_char buf '\\';
            Buffer.add_string buf (Printf.sprintf "%03d" (Char.code c)));
        go (i + 1) (i + 1)
      end
  in
  go 0 0;
  Buffer.add_char buf '"'

(* One pass over the entities to size the buffer: a close upper bound on
   the unescaped output (escapes may add a few percent, absorbed by one
   final doubling at worst; the common case allocates exactly once). *)
let size_estimate store all =
  List.fold_left
    (fun acc e ->
      let acc =
        acc + 16
        + (match Store.label store e with
          | Some l -> String.length l + 16
          | None -> 0)
      in
      match Store.obj_state store e with
      | Some (Store.Data d) -> acc + String.length d
      | Some (Store.Context ctx) -> acc + (24 * Context.cardinal ctx)
      | None -> acc)
    (String.length header + 1)
    all

(* The single encoder behind [to_string] and [encode_to_channel]: fills
   [buf] entity by entity, calling [flush] after each one — a no-op for
   the in-memory dump, a threshold-triggered channel write for the
   streaming one, so both produce the same bytes. *)
let encode store ~buf ~flush =
  (* Entities in allocation (id) order. *)
  let all =
    List.sort
      (fun e1 e2 -> Int.compare (Entity.id e1) (Entity.id e2))
      (Store.activities store @ Store.objects store)
  in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      (match Store.obj_state store e with
      | None ->
          Buffer.add_string buf "activity ";
          Buffer.add_string buf (string_of_int (Entity.id e));
          Buffer.add_char buf '\n'
      | Some (Store.Data d) ->
          Buffer.add_string buf "file ";
          Buffer.add_string buf (string_of_int (Entity.id e));
          Buffer.add_char buf ' ';
          add_quoted buf d;
          Buffer.add_char buf '\n'
      | Some (Store.Context _) ->
          Buffer.add_string buf "dir ";
          Buffer.add_string buf (string_of_int (Entity.id e));
          Buffer.add_char buf '\n');
      (match Store.label store e with
      | None -> ()
      | Some l ->
          Buffer.add_string buf "label ";
          add_entity_ref buf e;
          Buffer.add_char buf ' ';
          add_quoted buf l;
          Buffer.add_char buf '\n');
      flush ())
    all;
  (* Bindings, after every entity exists. *)
  List.iter
    (fun e ->
      match Store.obj_state store e with
      | Some (Store.Context ctx) ->
          List.iter
            (fun (atom, target) ->
              Buffer.add_string buf "bind ";
              Buffer.add_string buf (string_of_int (Entity.id e));
              Buffer.add_char buf ' ';
              add_quoted buf (Name.atom_to_string atom);
              Buffer.add_char buf ' ';
              add_entity_ref buf target;
              Buffer.add_char buf '\n')
            (Context.bindings ctx);
          flush ()
      | Some (Store.Data _) | None -> ())
    all

let to_string store =
  let all = Store.activities store @ Store.objects store in
  let buf = Buffer.create (size_estimate store all) in
  encode store ~buf ~flush:ignore;
  Buffer.contents buf

let stream_chunk = 65536

let encode_to_channel store oc =
  let buf = Buffer.create (2 * stream_chunk) in
  let flush () =
    if Buffer.length buf >= stream_chunk then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  encode store ~buf ~flush;
  Buffer.output_buffer oc buf

type pre_entity = Pre_activity | Pre_file of string | Pre_dir

let parse_entity_ref lineno s =
  if String.length s < 2 then parse_error lineno "bad entity reference %S" s
  else
    let num () =
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some i when i >= 0 -> i
      | _ -> parse_error lineno "bad entity reference %S" s
    in
    match s.[0] with
    | 'a' -> Entity.Activity (num ())
    | 'o' -> Entity.Object (num ())
    | _ -> parse_error lineno "bad entity reference %S" s

type line =
  | L_blank
  | L_entity of int * pre_entity
  | L_label of string * string  (* entity ref, label *)
  | L_bind of int * string * string  (* dir id, atom, target ref *)

let classify_line lineno line =
  if String.equal line "" then L_blank
  else if String.length line >= 9 && String.sub line 0 9 = "activity " then
    match int_of_string_opt (String.sub line 9 (String.length line - 9)) with
    | Some id -> L_entity (id, Pre_activity)
    | None -> parse_error lineno "bad activity line"
  else if String.length line >= 4 && String.sub line 0 4 = "dir " then
    match int_of_string_opt (String.sub line 4 (String.length line - 4)) with
    | Some id -> L_entity (id, Pre_dir)
    | None -> parse_error lineno "bad dir line"
  else if String.length line >= 5 && String.sub line 0 5 = "file " then begin
    try
      Scanf.sscanf line "file %d %S" (fun id data ->
          L_entity (id, Pre_file data))
    with Scanf.Scan_failure _ | End_of_file ->
      parse_error lineno "bad file line"
  end
  else if String.length line >= 6 && String.sub line 0 6 = "label " then begin
    try Scanf.sscanf line "label %s %S" (fun ref_ l -> L_label (ref_, l))
    with Scanf.Scan_failure _ | End_of_file ->
      parse_error lineno "bad label line"
  end
  else if String.length line >= 5 && String.sub line 0 5 = "bind " then begin
    try
      Scanf.sscanf line "bind %d %S %s" (fun dir atom target ->
          L_bind (dir, atom, target))
    with Scanf.Scan_failure _ | End_of_file ->
      parse_error lineno "bad bind line"
  end
  else parse_error lineno "unrecognised line %S" line

(* Reference lookup, label application and bind application over the
   id ↦ created-entity table. *)
let find_created created lineno e =
  match e with
  | Entity.Undefined -> Entity.Undefined
  | _ -> (
      match Hashtbl.find_opt created (Entity.id e) with
      | Some e' when Entity.(is_activity e = is_activity e') -> e'
      | _ -> parse_error lineno "dangling entity reference %s" (entity_ref e))

let apply_label store created (lineno, ref_, l) =
  Store.set_label store
    (find_created created lineno (parse_entity_ref lineno ref_))
    l

let apply_bind store created (lineno, dir_id, atom, target) =
  let dir = find_created created lineno (Entity.Object dir_id) in
  if not (Store.is_context_object store dir) then
    parse_error lineno "bind into non-directory o%d" dir_id;
  let target = find_created created lineno (parse_entity_ref lineno target) in
  match Name.atom atom with
  | a -> Store.bind store ~dir a target
  | exception Name.Invalid msg -> parse_error lineno "bad atom: %s" msg

(* The decoder: one pass over the lines [next_line] yields. Entities
   must arrive in dense id order (what the encoder emits), so each can
   be created the moment its line is read; labels and binds are applied
   eagerly when their entities already exist — always the case for
   encoder output — and parked until end of input otherwise, where a
   still-dangling reference is reported at its own line. *)
let decode_lines next_line =
  (match next_line () with
  | Some first when String.equal first header -> ()
  | Some first -> parse_error 1 "bad header %S" first
  | None -> parse_error 1 "empty input");
  let store = Store.create () in
  let created = Hashtbl.create 64 in
  let next_id = ref 0 in
  let pending_labels = ref [] in
  let pending_binds = ref [] in
  let ready e =
    match e with
    | Entity.Undefined -> true
    | _ -> (
        match Hashtbl.find_opt created (Entity.id e) with
        | Some e' -> Entity.(is_activity e = is_activity e')
        | None -> false)
  in
  let lineno = ref 1 in
  let rec loop () =
    match next_line () with
    | None -> ()
    | Some line ->
        incr lineno;
        let ln = !lineno in
        (match classify_line ln line with
        | L_blank -> ()
        | L_entity (id, pre) ->
            if id <> !next_id then
              parse_error ln "out-of-order entity id %d (expected %d)" id
                !next_id;
            let e =
              match pre with
              | Pre_activity -> Store.create_activity store
              | Pre_file data ->
                  Store.create_object ~state:(Store.Data data) store
              | Pre_dir -> Store.create_context_object store
            in
            Hashtbl.replace created id e;
            incr next_id
        | L_label (ref_, l) ->
            if ready (parse_entity_ref ln ref_) then
              apply_label store created (ln, ref_, l)
            else pending_labels := (ln, ref_, l) :: !pending_labels
        | L_bind (dir_id, atom, target) ->
            if ready (Entity.Object dir_id) && ready (parse_entity_ref ln target)
            then apply_bind store created (ln, dir_id, atom, target)
            else pending_binds := (ln, dir_id, atom, target) :: !pending_binds);
        loop ()
  in
  loop ();
  List.iter (apply_label store created) (List.rev !pending_labels);
  List.iter (apply_bind store created) (List.rev !pending_binds);
  store

(* Total: any input — random bytes, truncated dumps, mutated valid dumps
   — yields [Error] rather than an exception. The catch-all guards
   against escapes from library calls the per-line checks don't cover;
   it reports line 0 (no better position is known). *)
let decode next_line =
  match decode_lines next_line with
  | store -> Ok store
  | exception Err e -> Error e
  | exception exn -> Error { line = 0; message = Printexc.to_string exn }

let decode_from_channel ic = decode (fun () -> In_channel.input_line ic)

(* The lines [String.split_on_char '\n' text] would give, one at a
   time. *)
let of_string_result text =
  let pos = ref 0 in
  decode (fun () ->
      let start = !pos in
      if start > String.length text then None
      else
        let stop =
          Option.value ~default:(String.length text)
            (String.index_from_opt text start '\n')
        in
        pos := stop + 1;
        Some (String.sub text start (stop - start)))

let of_string text =
  match of_string_result text with
  | Ok store -> store
  | Error { line; message } ->
      raise (Parse_error (Printf.sprintf "line %d: %s" line message))

let roundtrip_equal s1 s2 =
  let entities st =
    List.sort
      (fun a b -> Int.compare (Entity.id a) (Entity.id b))
      (Store.activities st @ Store.objects st)
  in
  let e1 = entities s1 and e2 = entities s2 in
  List.length e1 = List.length e2
  && List.for_all2
       (fun a b ->
         Entity.equal a b
         && Store.label s1 a = Store.label s2 b
         &&
         match (Store.obj_state s1 a, Store.obj_state s2 b) with
         | None, None -> true
         | Some (Store.Data d1), Some (Store.Data d2) -> String.equal d1 d2
         | Some (Store.Context c1), Some (Store.Context c2) ->
             Context.equal c1 c2
         | _ -> false)
       e1 e2
