(** Ablation A1 — composite resolution rules R(receiver, sender).

    Section 4 of the paper: "It is also possible to conceive of more
    complex rules of the form R(receiver, sender). However, we have found
    no instances of, and no justification for, such rules." This ablation
    measures the composite rule (union of both contexts, either side
    preferred) against plain R(sender) and R(receiver) over the E2 world:
    the sender-preferring composite never beats plain R(sender), and the
    receiver-preferring composite inherits R(receiver)'s incoherence on
    clashes — i.e. the measurement agrees with the paper's judgement. *)

type point = {
  global_fraction : float;
  sender : float;
  receiver : float;
  composite_sender_wins : float;
  composite_receiver_wins : float;
}

val sweep : unit -> point list
(** One point per global fraction 0, 1/4, 1/2, 3/4, 1. *)

val run : Format.formatter -> unit
