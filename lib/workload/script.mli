(** Scripted naming scenarios.

    A small operation language over a host tree and a set of processes:
    deterministic construction and replay of naming scenarios, and a
    generator of random-but-valid scripts for fuzzing. The fuzz property
    in the test suite runs random scripts and checks the global
    invariants (lint-clean store, total resolution, coherence degrees in
    [0, 1]) — the library-level equivalent of crash-free fuzzing. *)

type op =
  | Mkdir of string  (** path in the host tree *)
  | Add_file of string * string  (** path, content *)
  | Write of string * string
  | Unlink of string  (** path of a binding to remove *)
  | Spawn of string  (** label; rooted at the host root *)
  | Fork of int  (** index of the parent process *)
  | Chdir of int * string
  | Chroot of int * string
  | Bind of int * string * string
      (** process, context binding name, host path *)
  | Unbind of int * string

type world

val new_world : Naming.Store.t -> world
val fs : world -> Vfs.Fs.t
val env : world -> Schemes.Process_env.t

val processes : world -> Naming.Entity.t list
(** In spawn order. *)

val process_count : world -> int
(** [List.length (processes w)], in O(1). *)

val proc : world -> int -> Naming.Entity.t option
(** The process at a spawn-order index, in O(1); [None] outside
    [[0, process_count w)]. *)

val apply_checked : world -> op -> (unit, string) result
(** Applies one operation. [Error reason] when the operation cannot
    apply (missing path, bad process index, invalid atom) and was
    skipped — the world is unchanged in that case. This is the
    mechanism behind the analyzer's NG105 "silently skipped op"
    diagnostic: it distinguishes "no-op by design" from "script bug". *)

val apply : world -> op -> unit
(** [apply_checked] with the verdict dropped. Operations referring to
    missing paths or process indices are silently skipped — scripts are
    total, which is what makes generated scripts replayable against
    evolving worlds. *)

type skip = { index : int; op : op; reason : string }
(** One silently-skipped operation: its position in the op list, the
    operation itself, and why it could not apply. *)

exception Skipped of skip
(** Raised by [run ~strict:true] on the first skip. *)

val run : ?strict:bool -> world -> op list -> unit
(** Applies the operations in order. With [strict] (default [false]),
    raises {!Skipped} at the first operation that cannot apply; the
    operations before it have already been applied. *)

val run_report : world -> op list -> skip list
(** Like [run] (never strict), but returns the skipped operations in op
    order — the dynamic ground truth the static flow analyzer's skip
    prediction is validated against. *)

val random_ops :
  world -> rng:Dsim.Rng.t -> n:int -> op list
(** Generates {e and applies} [n] random operations (always at least one
    initial [Spawn]); returns them, in order, for replay elsewhere. *)

val pp_op : Format.formatter -> op -> unit

val op_to_string : op -> string
(** [pp_op] as a string: the line format of script files. *)

val op_of_string : string -> (op, string) result
(** Parses one op in the [pp_op] syntax (["mkdir /a"],
    ["add-file /a/f \"content\""], ["bind 0 mnt /a"], …). The inverse
    of {!op_to_string}. *)

val pp_skip : Format.formatter -> skip -> unit
