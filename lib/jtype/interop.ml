let rec to_schema (t : Types.t) : Jsonschema.Schema.t =
  let open Jsonschema.Schema in
  match t.Types.node with
  | Types.Any -> Bool_schema true
  | Types.Bot -> Bool_schema false
  | Types.Null -> Schema { empty with types = Some [ `Null ] }
  | Types.Bool -> Schema { empty with types = Some [ `Boolean ] }
  | Types.Int -> Schema { empty with types = Some [ `Integer ] }
  | Types.Num -> Schema { empty with types = Some [ `Number ] }
  | Types.Str -> Schema { empty with types = Some [ `String ] }
  | Types.Arr elem ->
      Schema
        { empty with
          types = Some [ `Array ];
          (* always present: [Arr Bot] is [items: false], not an
             unconstrained array *)
          items = Some (Items_one (to_schema elem));
        }
  | Types.Rec fields ->
      Schema
        { empty with
          types = Some [ `Object ];
          properties =
            List.map (fun f -> (f.Types.fname, to_schema f.Types.ftype)) fields;
          required =
            List.filter_map
              (fun f -> if f.Types.optional then None else Some f.Types.fname)
              fields;
          additional_properties = Some (Bool_schema false);
        }
  | Types.Union ts ->
      Schema { empty with any_of = List.map to_schema ts }

let to_schema_json t = Jsonschema.Print.to_json (to_schema t)

(* [Some] of every translation, or [None] as soon as one fails *)
let rec all f = function
  | [] -> Some []
  | x :: rest -> (
      match f x with
      | None -> None
      | Some y -> Option.map (List.cons y) (all f rest))

(* Keywords the algebra has no counterpart for. Annotations, and
   [then]/[else] without [if], assert nothing and are ignored. *)
let beyond_algebra (n : Jsonschema.Schema.node) =
  let open Jsonschema.Schema in
  n.enum <> None || n.const <> None || n.multiple_of <> None || n.maximum <> None
  || n.exclusive_maximum <> None || n.minimum <> None || n.exclusive_minimum <> None
  || n.min_length <> None || n.max_length <> None || n.pattern <> None
  || n.format <> None || n.additional_items <> None || n.min_items <> None
  || n.max_items <> None || n.unique_items || n.contains <> None
  || n.min_contains <> None || n.max_contains <> None
  || n.pattern_properties <> [] || n.min_properties <> None
  || n.max_properties <> None || n.property_names <> None || n.dependencies <> []
  || n.all_of <> [] || n.one_of <> [] || n.not_ <> None || n.if_ <> None
  || n.ref_ <> None || n.definitions <> []

let rec of_schema (s : Jsonschema.Schema.t) : Types.t option =
  let open Jsonschema.Schema in
  match s with
  | Bool_schema true -> Some Types.any
  | Bool_schema false -> Some Types.bot
  | Schema n when beyond_algebra n -> None
  | Schema n -> (
      let no_object = n.properties = [] && n.required = [] && n.additional_properties = None in
      let scalar t = if no_object && n.items = None then Some t else None in
      match (n.types, n.any_of) with
      | None, [] -> scalar Types.any
      | None, branches when no_object && n.items = None ->
          Option.map Types.union (all of_schema branches)
      | Some [ `Null ], [] -> scalar Types.null
      | Some [ `Boolean ], [] -> scalar Types.bool
      | Some [ `Integer ], [] -> scalar Types.int
      | Some [ `Number ], [] -> scalar Types.num
      | Some [ `String ], [] -> scalar Types.str
      | Some [ `Array ], [] when no_object -> (
          match n.items with
          | None -> Some (Types.arr Types.any)
          | Some (Items_one s) -> Option.map Types.arr (of_schema s)
          | Some (Items_many _) -> None)
      | Some [ `Object ], [] -> (
          match n.additional_properties with
          | Some (Bool_schema false)
            when n.items = None
                 && List.for_all (fun r -> List.mem_assoc r n.properties) n.required ->
              all
                (fun (k, s) ->
                  Option.map
                    (Types.field ~optional:(not (List.mem k n.required)) k)
                    (of_schema s))
                n.properties
              |> Option.map Types.rec_
          | _ -> None)
      | _ -> None)
