(** A minimal JSON tree, printer and parser.

    The machine-readable documents of the libraries, [namingctl] and
    the bench — analyzer and SARIF reports, chaos results, explorer
    witness schedules, coherence estimates and benchmark results — are
    built as a {!t} and printed here, so there is one string escaper,
    one float renderer and one parser, without a JSON dependency.
    Strings are byte strings: the printer escapes only the double
    quote, the backslash and control characters (RFC 8259) and copies
    every other byte through. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val fixed : int -> float -> t
(** [fixed d x] is [Float x] rounded to [d] decimals the way
    [Printf.sprintf "%.*f" d x] rounds it: a report number with a fixed
    precision. *)

val to_string : t -> string
(** Compact (single-line) rendering. Floats print in their shortest
    round-trip form, integral ones as ["x.0"] below [1e15], so
    {!of_string} recovers the exact value and the document re-renders
    byte-identically. Non-finite floats, which JSON cannot represent,
    print as [null]. *)

val to_string_pretty : t -> string
(** Two-space indented rendering, deterministic (fields print in the
    order given), suitable for golden tests. *)

val of_string : string -> (t, string) result
(** Parses one JSON document (surrounding whitespace allowed). Integer
    literals that fit an [int] parse as [Int], every other number as
    [Float]; [\uXXXX] escapes decode to UTF-8. [Error msg] names the
    first problem and ends ["at offset N"], the byte where it was found.
    Raw control characters in strings and number literals that overflow
    to an infinity are errors. *)
