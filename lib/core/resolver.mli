(** Resolution of (compound) names in a context.

    Implements the recursive definition of section 2 of the paper:

    {v c(n1 ... nk) = σ(c(n1))(n2 ... nk)   when σ(c(n1)) is a context
                     = ⊥                     otherwise v}

    Resolution always terminates: each step consumes one atom of the
    compound name, so even cyclic naming graphs (e.g. [".."] bindings)
    cannot cause divergence. *)

type step = {
  at : Entity.t;
      (** The context object whose context was applied, or
          {!Entity.undefined} for the first step, which uses the starting
          context value directly. *)
  atom : Name.atom;  (** The atom that was looked up. *)
  target : Entity.t;  (** The entity the atom was bound to (possibly ⊥). *)
}

type trace = step list
(** In resolution order. *)

val resolve : Store.t -> Context.t -> Name.t -> Entity.t
(** [resolve store c n] is the entity denoted by [n] in context [c], or
    {!Entity.undefined} when resolution fails at any step (unbound atom, or
    an intermediate entity that is not a context object). An iterative
    walk that allocates nothing on the success path. *)

val resolve_trace : Store.t -> Context.t -> Name.t -> Entity.t * trace
(** Like {!resolve} but also returns the resolution path. On failure the
    trace stops at the failing step. *)

val resolve_in : Store.t -> Entity.t -> Name.t -> Entity.t
(** [resolve_in store o n] resolves [n] in the context that is the state of
    context object [o]; ⊥ when [o] is not a context object. *)

val resolve_str : Store.t -> Context.t -> string -> Entity.t
(** Convenience: parses with {!Name.of_string} first. *)

val deref : Store.t -> Context.t -> Name.t -> prefix:int -> Entity.t
(** [deref store c n ~prefix] resolves only the first [prefix] atoms of
    [n]; [prefix] must be between 1 and [Name.length n].
    @raise Invalid_argument otherwise. *)

val pp_trace : Store.t -> Format.formatter -> trace -> unit
