(* The three workloads: one seeded corpus plus one schema each. Schemas are
   written from the generator's known shape, never inferred by the code
   under test. See README.md for why each workload exists and which layers
   it stresses or bypasses. *)

module V = Json.Value

type spec = {
  name : string;
  jobs : int;  (** [--jobs] of every op in the job mix *)
  journal : bool;  (** [check] writes a fresh checkpoint journal per run *)
  fault_rate : float option;  (** [Chaos.corrupt] rate, if faults are injected *)
  docs : Datagen.rng -> V.t list;
  schema : V.t;
}

let ty t = V.Object [ ("type", V.String t) ]

let object_schema ~required props =
  V.Object
    [ ("type", V.String "object");
      ("properties", V.Object props);
      ("required", V.Array (List.map (fun k -> V.String k) required)) ]

let tweets_narrow =
  { name = "tweets-narrow"; jobs = 1; journal = false; fault_rate = None;
    docs = (fun rng -> Datagen.tweets rng 10_000);
    schema =
      object_schema ~required:[ "id"; "text" ]
        [ ("id", ty "integer"); ("text", ty "string") ] }

(* [Datagen.events] cycles a field's value kind by its index mod 4 *)
let wide_fields = 64

let wide_full =
  let field j =
    ( Printf.sprintf "f%d" j,
      ty (match j mod 4 with 0 -> "integer" | 1 -> "string" | 2 -> "boolean" | _ -> "number") )
  in
  let props = List.init wide_fields field in
  { name = "wide-full"; jobs = 1; journal = false; fault_rate = None;
    docs = (fun rng -> Datagen.events rng ~fields:wide_fields 1_500);
    schema = object_schema ~required:(List.map fst props) props }

(* [Datagen.skewed_structures]: shape [s] has fields [field_s_0..field_s_s],
   all integers, besides the integer [id]. More shapes would make
   [Merge.merge_all] dominate everything else by an order of magnitude. *)
let longtail_shapes = 50

let longtail_messy_j2 =
  let shape_fields s =
    List.init (s + 1) (fun j -> (Printf.sprintf "field_%d_%d" s j, ty "integer"))
  in
  { name = "longtail-messy-j2"; jobs = 2; journal = true; fault_rate = Some 0.01;
    docs = (fun rng -> Datagen.skewed_structures rng ~shapes:longtail_shapes ~zipf:1.0 2_500);
    schema =
      object_schema ~required:[ "id" ]
        (("id", ty "integer") :: List.concat (List.init longtail_shapes shape_fields)) }

let all = [ tweets_narrow; wide_full; longtail_messy_j2 ]

type t = {
  spec : spec;
  text : string;  (** the NDJSON input every op reads *)
  corrupting : int;  (** records [Chaos] guarantees the parser rejects *)
  faulted : string;  (** the corrupting records alone, one per line *)
  root : V.t;  (** the schema as read back from its text *)
  plan : Jsonschema.Compile.plan;
}

(* Oversize is left out: its 64 KB envelopes would swamp the byte count. *)
let faults = Core.Chaos.[ Truncate; Bit_flip; Duplicate_line ]

let corrupt ~seed ~rate text =
  let o = Core.Chaos.corrupt ~faults ~seed ~rate text in
  let lines = Array.of_list (String.split_on_char '\n' o.Core.Chaos.text) in
  let faulted =
    List.filter_map
      (fun (i : Core.Chaos.injected) ->
        match i.Core.Chaos.fault with
        | Core.Chaos.Truncate | Core.Chaos.Bit_flip ->
            Some (lines.(i.Core.Chaos.out_line - 1) ^ "\n")
        | _ -> None)
      o.Core.Chaos.injected
  in
  (o.Core.Chaos.text, o.Core.Chaos.corrupting, String.concat "" faulted)

(* Everything a run does before its first timed op: corpus generation,
   fault injection, schema build and parse, cold plan compile. *)
let setup spec ~seed =
  let text = Datagen.to_ndjson (spec.docs (Datagen.rng ~seed)) in
  let text, corrupting, faulted =
    match spec.fault_rate with
    | None -> (text, 0, "")
    | Some rate -> corrupt ~seed ~rate text
  in
  let root =
    match Json.Parser.parse (Json.Printer.to_string spec.schema) with
    | Ok v -> v
    | Error e -> failwith ("schema: " ^ Json.Parser.string_of_error e)
  in
  Jsonschema.Compile.clear_cache ();
  let plan =
    match Jsonschema.Compile.compile root with
    | Ok p -> p
    | Error _ -> failwith "schema does not compile"
  in
  { spec; text; corrupting; faulted; root; plan }

let find name = List.find_opt (fun s -> s.name = name) all
