(** Semantic membership for the type algebra: the denotational judgment
    v ∈ ⟦t⟧, exact. Inclusion ⟦a⟧ ⊆ ⟦b⟧ is {!Subtype.check}. *)

val member : Json.Value.t -> Types.t -> bool

type mismatch = { at : Json.Pointer.t; expected : Types.t; got : Json.Value.t }

val check : Json.Value.t -> Types.t -> (unit, mismatch) result
(** Like {!member} but reports the first (leftmost-innermost) mismatch. *)

val string_of_mismatch : mismatch -> string
