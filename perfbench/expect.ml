(* Op outputs rendered to canonical text, and the reference they are
   checked against. The reference comes from the spec engines at jobs=1:
   the tree engine for inference and the ~compiled:false interpreter for
   validation. *)

module P = Core.Pipeline
module R = Core.Resilient

(* component name -> canonical rendering *)
type t = (string * string) list

let json v = Json.Printer.to_string v

let of_ingest (ing : R.ingest) =
  [ ("dead", json (Json.Value.Array (List.map R.dead_letter_to_json ing.R.dead)));
    ("report", json (R.report_to_json ing.R.report)) ]

let of_inferred = function
  | None -> [ ("inferred", "none") ]
  | Some (i : P.inferred) ->
      [ ("type", json (Jtype.Types.to_json i.P.jtype));
        ("counting", json (Jtype.Counting.to_json i.P.counting));
        ("json_schema", json i.P.json_schema);
        ("typescript", i.P.typescript);
        ("swift", i.P.swift) ]

let of_failures failures =
  let one (i, es) =
    string_of_int i ^ ": "
    ^ String.concat "; " (List.map Jsonschema.Validate.string_of_error es)
  in
  [ ("failures", String.concat "\n" (List.map one failures)) ]

(* A witness must be a value the Validate interpreter rejects; the
   rendering says so, so an accepted witness never matches the reference. *)
let of_verdict ~root = function
  | None -> [ ("verdict", "none") ]
  | Some v ->
      let witness =
        match v with
        | Jtype.Contain.Not_contained w -> (
            match Jsonschema.Validate.validate ~root w with
            | Error _ -> "rejected by Validate"
            | Ok () -> "ACCEPTED by Validate")
        | Jtype.Contain.Contained | Jtype.Contain.Unknown _ -> "none"
      in
      [ ("verdict", Jtype.Contain.verdict_to_string v); ("witness", witness) ]

let infer (inferred, ing) = of_inferred inferred @ of_ingest ing
let validate (ing, failures) = of_failures failures @ of_ingest ing

let check ~root (c, ing, _sup) =
  of_verdict ~root c.P.chk_verdict @ of_inferred c.P.chk_inferred @ of_ingest ing

(* Components that differ between [expected] and [actual], by name. *)
let diff ~expected actual =
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k actual with
      | Some v' when String.equal v v' -> None
      | _ -> Some k)
    expected
  @ List.filter_map
      (fun (k, _) -> if List.mem_assoc k expected then None else Some k)
      actual

type reference = { r_infer : t; r_validate : t; r_check : t }

let ok_or_fail = function Ok v -> v | Error e -> failwith e

let reference (w : Workload.t) =
  let text = w.Workload.text and root = w.Workload.root in
  { r_infer = infer (P.infer_ndjson_resilient ~engine:`Tree ~jobs:1 text);
    r_validate =
      validate (P.validate_ndjson ~engine:`Tree ~compiled:false ~jobs:1 ~root text);
    r_check = check ~root (ok_or_fail (P.check_ndjson ~engine:`Tree ~jobs:1 ~root text)) }

(* The reference's own contract: dead letters are exactly the records Chaos
   corrupted, and no witness is accepted. Returns the violations. *)
let audit (w : Workload.t) r =
  let dead_count (ing : t) =
    match Json.Parser.parse (List.assoc "dead" ing) with
    | Ok (Json.Value.Array ds) -> List.length ds
    | _ -> -1
  in
  List.concat_map
    (fun (op, out) ->
      (if dead_count out = w.Workload.corrupting then []
       else [ Printf.sprintf "%s: %d dead letters, Chaos corrupted %d" op
                (dead_count out) w.Workload.corrupting ])
      @
      match List.assoc_opt "witness" out with
      | Some "ACCEPTED by Validate" -> [ op ^ ": witness accepted by Validate" ]
      | _ -> [])
    [ ("infer", r.r_infer); ("validate", r.r_validate); ("check", r.r_check) ]
