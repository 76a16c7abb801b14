(** Type-in-schema containment: is every value of an inferred type
    accepted by a JSON Schema?

    This is the [Jsonschema.Contain] decision procedure of the roadmap; it
    lives in [Jtype] because the dependency arrow points from the type
    algebra to the schema library, not back. [check ~root t] walks the
    schema keyword by keyword against each inhabited union branch of [t]:
    type-kind booleans, folded numeric bounds, [required]/[properties]
    coverage, [enum]/[const] sets, array shape. Schemas the type algebra
    expresses exactly ({!Interop.of_schema} returns [Some]) short-circuit
    through the kernel subtype procedure {!Subtype.check}.

    Three-valued and self-verifying: a [Not_contained w] verdict carries a
    concrete member [w] of [t] that {b both} validation engines
    ([Validate.validate] and [Compile.run]) were observed to reject —
    candidate counterexamples that either engine accepts are discarded, and
    if none survives the verdict degrades to [Unknown] with a reason.
    Keywords outside the decided fragment ([pattern], asserted [format],
    [oneOf], [not], [if]/[then]/[else], [patternProperties],
    [propertyNames], [dependencies]) never prove containment: they
    contribute refutation candidates and otherwise report [Unknown].

    Cost is O(|type| · |schema|) plus a handful of candidate validations —
    independent of how much data the type was inferred from, which is the
    point: checking drift of a corpus against a schema without
    re-validating the corpus. *)

type verdict =
  | Contained  (** proved: every value of the type satisfies the schema *)
  | Not_contained of Json.Value.t
      (** witness: a member of the type rejected by both engines *)
  | Unknown of string  (** outside the decided fragment; the reason why *)

val check :
  ?config:Jsonschema.Validate.config -> root:Json.Value.t -> Types.t -> verdict
(** [check ~root t] where [root] is the schema as a JSON document (the
    form [Compile.compile] takes). [config] controls witness verification
    and which keywords assert — with [assert_formats] unset (the default),
    [format] is an annotation and never blocks a proof. An unparseable
    schema is [Unknown], never a guess. *)

val check_schema : root:Json.Value.t -> Json.Value.t -> verdict
(** [check_schema ~root sub]: is every instance of the schema [sub] an
    instance of [root]? Schema-in-schema containment, the evolution check
    "old ⊆ new". When [sub] is in the exact fragment the answer is
    [check ~root] on its translation; otherwise, and whenever that is
    [Unknown], it is refutation by seeded instance generation from [sub].
    Either way a [Not_contained w] witness is accepted under [sub] and
    rejected under [root] by both engines. [Contained] is only ever
    proved, never sampled; a schema that does not parse gives [Unknown]. *)

val verdict_to_string : verdict -> string
