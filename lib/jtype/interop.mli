(** Bridging the type algebra and JSON Schema.

    [to_schema] targets the union-free-friendly fragment: records become
    [type: object] with [properties]/[required]/[additionalProperties:
    false], arrays [type: array] + [items], unions [anyOf]. [of_schema] is
    its exact inverse on that fragment and refuses everything else. *)

val to_schema : Types.t -> Jsonschema.Schema.t
(** Arrays always carry [items]; the empty-array type [Arr Bot] is
    [items: false], so an inferred schema admits no more than the type. *)

val to_schema_json : Types.t -> Json.Value.t

val of_schema : Jsonschema.Schema.t -> Types.t option
(** The type with exactly the schema's instances, or [None] when the
    schema lies outside the fragment the algebra expresses: boolean
    schemas, a node with no keyword, a single scalar [type], [type: array]
    with no [items] or homogeneous [items], closed objects
    ([additionalProperties: false]) whose [required] names only declared
    [properties], and [anyOf] at an untyped node — nested arbitrarily.
    Any other asserting keyword ([enum], bounds, [pattern], positional
    [items], [$ref], [allOf]/[oneOf]/[not], ...) or an open object gives
    [None]. [of_schema (to_schema t) = Some t] for every [t].

    Exact up to one representation detail: an integral float such as
    [3.0] is a valid [integer] but not a member of [Int]. No keyword
    {!Contain} decides tells [3.0] from [3], so containment verdicts are
    unaffected. *)
