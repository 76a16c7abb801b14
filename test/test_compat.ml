(* Schema-in-schema containment: [Contain.check_schema], the procedure
   behind [jsontool compat]. Every [Not_contained] witness is checked to
   separate the two schemas in both validation engines (Validate and
   Compile), and a [Contained] verdict must let instances of the
   sub-schema pass the super-schema in both. Type-in-type and
   type-in-schema containment are covered by test_subtype.ml; the
   [@runtest-subtype] alias runs both suites. They are separate
   executables because Alcotest pads and truncates test names to the
   widest group name of a run: a "containment" group in test_subtype.ml
   would change how its property names print. *)

open Jtype
open Jtype_gen

(* schema-in-schema: both engines must agree with every verdict *)
let engines_say root w =
  let v = Jsonschema.Validate.is_valid ~root w in
  match Jsonschema.Compile.compile root with
  | Ok plan when Bool.equal v (Jsonschema.Compile.is_valid plan w) -> Some v
  | Ok _ | Error _ -> None

let prop_containment_included_is_sound =
  QCheck2.Test.make ~name:"Included implies instance-level inclusion" ~count:100
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 5) gen_value)
        (list_size (int_range 1 5) gen_value)
        (opt gen_type))
    (fun (va, vb, shape) ->
      (* two fragment schemas: a widening of the first, or an unrelated
         shape, so both verdicts occur *)
      let ta = Merge.merge_all ~equiv:Merge.Kind (List.map Types.of_value va) in
      let tb =
        match shape with
        | Some t -> t
        | None -> Merge.merge_all ~equiv:Merge.Kind (List.map Types.of_value (va @ vb))
      in
      let sa = Interop.to_schema_json ta and sb = Interop.to_schema_json tb in
      match Contain.check_schema ~root:sb sa with
      | Contain.Contained ->
          (* sampled instances of sa, and the values it was built from,
             must all satisfy sb under both engines *)
          let st = Jsonschema.Generate.rng ~seed:7 in
          List.for_all (fun v -> engines_say sb v = Some true) va
          && List.for_all
               (fun _ ->
                 match Jsonschema.Generate.generate_valid st ~root:sa with
                 | Some v -> engines_say sb v = Some true
                 | None -> true)
               (List.init 20 Fun.id)
      | Contain.Not_contained w ->
          engines_say sa w = Some true && engines_say sb w = Some false
      | Contain.Unknown _ -> true)


let compat sub super =
  let s = Json.Parser.parse_exn in
  Contain.check_schema ~root:(s super) (s sub)

let expect_contained what v =
  match v with
  | Contain.Contained -> ()
  | v -> Alcotest.failf "%s: %s" what (Contain.verdict_to_string v)

let test_compat_included () =
  expect_contained "int <= num" (compat {|{"type": "integer"}|} {|{"type": "number"}|});
  expect_contained "int <= int|str"
    (compat {|{"type": "integer"}|} {|{"anyOf": [{"type": "integer"}, {"type": "string"}]}|});
  (* a record with a mandatory field is included in one where it is optional *)
  expect_contained "record width"
    (compat
       {|{"type": "object", "properties": {"a": {"type": "integer"}},
          "required": ["a"], "additionalProperties": false}|}
       {|{"type": "object", "properties": {"a": {"type": "integer"}},
          "additionalProperties": false}|});
  (* the common evolution step: a closed object schema becomes open *)
  expect_contained "closed <= open"
    (compat
       {|{"type": "object", "properties": {"a": {"type": "integer"}},
          "required": ["a"], "additionalProperties": false}|}
       {|{"type": "object", "properties": {"a": {"type": "number"}}}|})

let test_compat_refuted () =
  let separates sub super =
    match compat sub super with
    | Contain.Not_contained w ->
        (* the counterexample really does separate the schemas, in both engines *)
        let s = Json.Parser.parse_exn in
        Alcotest.(check (option bool)) "cex valid for sub" (Some true) (engines_say (s sub) w);
        Alcotest.(check (option bool)) "cex invalid for super" (Some false)
          (engines_say (s super) w)
    | v -> Alcotest.failf "%s <= %s: %s" sub super (Contain.verdict_to_string v)
  in
  separates {|{"type": "number"}|} {|{"type": "integer"}|};
  (* refutation works outside the structural fragment too *)
  separates {|{"type": "integer", "minimum": 0, "maximum": 100}|}
    {|{"type": "integer", "minimum": 50}|};
  (* an exact sub-schema against a super outside the fragment: decided
     keyword by keyword *)
  separates
    {|{"type": "object", "properties": {"id": {"type": "integer"}},
       "required": ["id"], "additionalProperties": false}|}
    {|{"type": "object", "properties": {"id": {"type": "integer", "minimum": 0}}}|}

let test_compat_unknown_outside_fragment () =
  (* true containment but with the sub-schema outside the fragment: Unknown
     with a reason, never a wrong answer *)
  (match compat {|{"type": "integer", "minimum": 5}|} {|{"type": "integer", "minimum": 0}|} with
  | Contain.Unknown reason ->
      Alcotest.(check bool) "reason given" true (String.length reason > 0)
  | v -> Alcotest.failf "expected unknown, got %s" (Contain.verdict_to_string v));
  (* an exact sub-schema against a keyword Contain leaves undecided: the
     keyword's reason survives the sampling fallback, nothing is proved *)
  (match compat {|{"type": "string"}|} {|{"type": "string", "pattern": ".*"}|} with
  | Contain.Unknown reason ->
      Alcotest.(check string) "keyword named" {|pattern ".*" outside the decided fragment|}
        reason
  | v -> Alcotest.failf "expected unknown, got %s" (Contain.verdict_to_string v));
  (* a super-schema that does not parse rejects everything in Validate;
     that must not read as a counterexample *)
  match compat {|{"type": "integer"}|} {|{"type": "integr"}|} with
  | Contain.Unknown _ -> ()
  | v -> Alcotest.failf "malformed super: %s" (Contain.verdict_to_string v)

let test_compat_equivalent () =
  let a = {|{"anyOf": [{"type": "integer"}, {"type": "string"}]}|}
  and b = {|{"anyOf": [{"type": "string"}, {"type": "integer"}]}|} in
  expect_contained "union order a <= b" (compat a b);
  expect_contained "union order b <= a" (compat b a)

let test_compat_satisfiable () =
  (* a schema has an instance iff it is not contained in [false]; the
     witness is that instance *)
  let sub = {|{"type": "integer", "minimum": 3, "maximum": 5}|} in
  (match compat sub "false" with
  | Contain.Not_contained w ->
      Alcotest.(check (option bool)) "witness valid" (Some true)
        (engines_say (Json.Parser.parse_exn sub) w)
  | v -> Alcotest.failf "should find a witness: %s" (Contain.verdict_to_string v));
  expect_contained "false has no instances" (compat "false" "false")

let () =
  Alcotest.run "compat"
    [ ("properties",
       [ QCheck_alcotest.to_alcotest prop_containment_included_is_sound ]);
      ("containment",
       [ Alcotest.test_case "included" `Quick test_compat_included;
         Alcotest.test_case "refuted" `Quick test_compat_refuted;
         Alcotest.test_case "unknown outside fragment" `Quick
           test_compat_unknown_outside_fragment;
         Alcotest.test_case "equivalence" `Quick test_compat_equivalent;
         Alcotest.test_case "satisfiability" `Quick test_compat_satisfiable ]) ]
