type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let fixed digits x = Float (float_of_string (Printf.sprintf "%.*f" digits x))

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Integral values print as "x.0" (so the number visibly stays a float
   and parses back as [Float]), everything else as the shortest %g that
   round-trips through [float_of_string]. *)
let float_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let rec go p =
      if p >= 17 then Printf.sprintf "%.17g" f
      else
        let s = Printf.sprintf "%.*g" p f in
        if float_of_string s = f then s else go (p + 1)
    in
    go 15

(* [indent < 0] means compact. *)
let rec render buf ~indent ~level j =
  let pad l =
    if indent >= 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (l * indent) ' ')
    end
  in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | String s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          pad (level + 1);
          render buf ~indent ~level:(level + 1) item)
        items;
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          pad (level + 1);
          escape_string buf k;
          Buffer.add_char buf ':';
          if indent >= 0 then Buffer.add_char buf ' ';
          render buf ~indent ~level:(level + 1) v)
        fields;
      pad level;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  render buf ~indent:(-1) ~level:0 j;
  Buffer.contents buf

let to_string_pretty j =
  let buf = Buffer.create 256 in
  render buf ~indent:2 ~level:0 j;
  Buffer.contents buf

(* A recursive-descent reader over the whole input. *)

exception Bad of string

let of_string (s : string) : (t, string) result =
  let n = String.length s in
  let i = ref 0 in
  let err ?(at = !i) msg =
    raise (Bad (Printf.sprintf "%s at offset %d" msg at))
  in
  let peek () = if !i < n then Some s.[!i] else None in
  let skip_ws () =
    while
      !i < n && match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr i
    done
  in
  let expect c =
    if peek () = Some c then incr i else err (Printf.sprintf "expected '%c'" c)
  in
  let lit w v =
    let l = String.length w in
    if !i + l <= n && String.sub s !i l = w then begin
      i := !i + l;
      v
    end
    else err ("expected " ^ w)
  in
  let digits () =
    let start = !i in
    while !i < n && match s.[!i] with '0' .. '9' -> true | _ -> false do
      incr i
    done;
    if !i = start then err "malformed number"
  in
  let number () =
    let start = !i in
    if peek () = Some '-' then incr i;
    if peek () = Some '0' then incr i else digits ();
    let integral = ref true in
    if peek () = Some '.' then begin
      incr i;
      integral := false;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        incr i;
        integral := false;
        (match peek () with Some ('+' | '-') -> incr i | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!i - start) in
    match if !integral then int_of_string_opt text else None with
    | Some k -> Int k
    | None ->
        let f = float_of_string text in
        if Float.is_finite f then Float f
        else err ~at:start "number out of range"
  in
  (* [!i] is on the 'u' of the \u escape whose backslash is at [at];
     consumes the 'u' and four hex digits. *)
  let hex4 ~at =
    let v = ref 0 in
    for k = 1 to 4 do
      if !i + k >= n then err ~at "truncated \\u escape";
      let d =
        match s.[!i + k] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> err ~at "malformed \\u escape"
      in
      v := (!v * 16) + d
    done;
    i := !i + 5;
    !v
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then err "unterminated string"
      else
        match s.[!i] with
        | '"' ->
            incr i;
            Buffer.contents b
        | '\\' ->
            let at = !i in
            incr i;
            let bad () = err ~at "bad escape" in
            let simple c =
              Buffer.add_char b c;
              incr i
            in
            (match peek () with
            | None -> err "unterminated string"
            | Some (('"' | '\\' | '/') as c) -> simple c
            | Some 'b' -> simple '\b'
            | Some 'f' -> simple '\012'
            | Some 'n' -> simple '\n'
            | Some 'r' -> simple '\r'
            | Some 't' -> simple '\t'
            | Some 'u' ->
                let hi = hex4 ~at in
                let code =
                  if hi >= 0xD800 && hi <= 0xDBFF then
                    if !i + 1 < n && s.[!i] = '\\' && s.[!i + 1] = 'u'
                    then begin
                      let at = !i in
                      incr i;
                      let lo = hex4 ~at in
                      if lo >= 0xDC00 && lo <= 0xDFFF then
                        0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
                      else err ~at "bad escape"
                    end
                    else bad ()
                  else if hi >= 0xDC00 && hi <= 0xDFFF then bad ()
                  else hi
                in
                Buffer.add_utf_8_uchar b (Uchar.of_int code)
            | Some _ -> bad ());
            go ()
        | c when Char.code c < 0x20 -> err "control character in string"
        | c ->
            Buffer.add_char b c;
            incr i;
            go ()
    in
    go ()
  in
  (* The elements of an array or object up to [close], each read by
     [item]. *)
  let elements close item =
    skip_ws ();
    if peek () = Some close then begin
      incr i;
      []
    end
    else
      let rec go acc =
        let v = item () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr i;
            go (v :: acc)
        | Some c when c = close ->
            incr i;
            List.rev (v :: acc)
        | _ -> err (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> String (string_ ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> err "expected a JSON value"
  and arr () =
    expect '[';
    List (elements ']' value)
  and obj () =
    expect '{';
    Obj
      (elements '}' (fun () ->
           skip_ws ();
           let k = string_ () in
           skip_ws ();
           expect ':';
           (k, value ())))
  in
  match
    let v = value () in
    skip_ws ();
    if !i <> n then err "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
