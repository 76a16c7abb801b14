(* Tests for the fast parsing substrate: raw scanning, the Mison structural
   index, the projection parser with speculation, and the Fad.js speculative
   decoder. *)

let parse = Json.Parser.parse_exn
let value = Alcotest.testable Json.Printer.pp Json.Value.equal_strict

(* --- rawscan ----------------------------------------------------------- *)

let test_skip_value () =
  let check src expected_end =
    match Fastjson.Rawscan.skip_value src 0 with
    | Ok e -> Alcotest.(check int) src expected_end e
    | Error msg -> Alcotest.fail (src ^ ": " ^ msg)
  in
  check {|"abc" rest|} 5;
  check {|"a\"b" rest|} 6;
  check "12345, rest" 5;
  check "true, rest" 4;
  check "[1, [2, 3]] rest" 11;
  check {|{"a": {"b": "}"}} rest|} 17;
  check {|{"a": "[not a bracket]"} rest|} 24;
  match Fastjson.Rawscan.skip_value "[1, 2" 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unbalanced must fail"

let test_raw_key_at () =
  let src = {|{"alpha": 1, "be\"ta" : 2}|} in
  let colon1 = String.index src ':' in
  (match Fastjson.Rawscan.raw_key_at src ~colon:colon1 with
   | Ok (k, _) -> Alcotest.(check string) "simple key" "alpha" k
   | Error m -> Alcotest.fail m);
  let colon2 = String.rindex src ':' in
  match Fastjson.Rawscan.raw_key_at src ~colon:colon2 with
  | Ok (k, _) -> Alcotest.(check string) "escaped key (raw)" {|be\"ta|} k
  | Error m -> Alcotest.fail m

(* --- validating skim ---------------------------------------------------- *)

(* [Rawscan.skim_value] is the streaming validator's instrument for
   subtrees its plan ignores, so it must accept exactly what the tree
   parser accepts and fail with byte-identical errors (position, message,
   kind) under every parser option the hooks and the lexer enforce: depth,
   node and byte budgets charged at token offsets, string budgets, and
   duplicate keys under [Reject]. *)
let skim_outcome (options : Json.Parser.options) src =
  let module L = Json.Lexer in
  let module P = Json.Parser in
  let lx = L.create ?max_string_bytes:options.P.max_string_bytes src in
  let nodes = ref 0 in
  let spend_node _off =
    incr nodes;
    match options.P.max_nodes with
    | Some limit when !nodes > limit ->
        P.fail ~kind:(P.Budget_exceeded P.Nodes_exceeded) (L.tok_pos lx)
          (Printf.sprintf "document exceeds %d nodes" limit)
    | _ -> ()
  in
  let bytes_over off = match options.P.max_doc_bytes with
    | Some limit when off > limit -> Some limit
    | _ -> None
  in
  let check_bytes off =
    match bytes_over off with
    | Some limit ->
        P.fail ~kind:(P.Budget_exceeded P.Bytes_exceeded) (L.tok_pos lx)
          (Printf.sprintf "document exceeds %d bytes" limit)
    | None -> ()
  in
  P.run lx (fun () ->
      Fastjson.Rawscan.skim_value lx ~dup_keys:options.P.dup_keys
        ~max_depth:options.P.max_depth ~depth:0 ~spend_node ~check_bytes;
      (match bytes_over (L.offset lx) with
       | Some limit ->
           P.fail ~kind:(P.Budget_exceeded P.Bytes_exceeded) (L.position lx)
             (Printf.sprintf "document exceeds %d bytes" limit)
       | None -> ());
      L.offset lx)

let render_outcome = function
  | Ok stop -> Printf.sprintf "ok, stop %d" stop
  | Error (e : Json.Parser.error) ->
      let p = e.Json.Parser.position in
      Printf.sprintf "%s at %d (%d:%d), budget %b" e.Json.Parser.message
        p.Json.Lexer.offset p.Json.Lexer.line p.Json.Lexer.column
        (Json.Parser.is_budget_error e)

let test_skim_value_matches_parser () =
  let st = Datagen.rng ~seed:53 in
  let tweets = List.map Json.Printer.to_string (Datagen.tweets st 12) in
  let corrupted =
    String.split_on_char '\n'
      (Core.Chaos.corrupt ~seed:530 ~rate:0.5 (String.concat "\n" tweets)).Core.Chaos.text
  in
  let edge =
    [ "[]"; "{}"; "[1,]"; "[1 2]"; "{,}"; {|{"a" 1}|}; {|{"a":1,"a":2}|};
      {|{"a":{"b":1,"b":2},"c":[]}|}; "[[[[[1]]]]]"; {|[[], {"k": [{}]}]|};
      {|{"a":[{"b":{"c":[1,2,{"d":null}]}}]}|}; {|"\ud800"|}; {|"\u0041\n"|};
      "-"; "01"; "1e999"; "-0.5e-3"; "123456789012345678901"; "tru"; "nul";
      {|{"\u0061":1,"a":2}|}; {|{"long key here": "and a longer string value"}|};
      "  [ 1 , { \"x\" : [ true , false ] } ]  "; "" ]
  in
  let base = Json.Parser.default_options in
  let options =
    [ base;
      { base with Json.Parser.dup_keys = Json.Parser.Reject };
      { base with Json.Parser.dup_keys = Json.Parser.Keep_all; max_depth = 3 };
      { base with Json.Parser.max_nodes = Some 20 };
      { base with Json.Parser.max_doc_bytes = Some 100 };
      { base with Json.Parser.max_string_bytes = Some 8 } ]
  in
  List.iteri
    (fun oi options ->
      List.iter
        (fun src ->
          let tree =
            match Json.Parser.parse_substring ~options src ~pos:0 with
            | Ok (_, stop) -> Ok stop
            | Error e -> Error e
          in
          Alcotest.(check string)
            (Printf.sprintf "options #%d on %S" oi src)
            (render_outcome tree)
            (render_outcome (skim_outcome options src)))
        (edge @ tweets @ corrupted))
    options

(* --- structural index --------------------------------------------------- *)

let test_index_quotes_and_strings () =
  let src = {|{"a": "x:y", "b\"q": 2}|} in
  let idx = Fastjson.Structural_index.build src in
  (* the escaped quote inside the key is not structural *)
  let quotes = Fastjson.Structural_index.structural_quotes idx in
  Alcotest.(check int) "structural quotes" 6 (List.length quotes);
  (* the colon inside the string "x:y" is masked *)
  let colons = Fastjson.Structural_index.colons idx ~level:1 ~lo:0 ~hi:(String.length src) in
  Alcotest.(check int) "two structural colons" 2 (List.length colons);
  List.iter
    (fun c -> Alcotest.(check char) "colon char" ':' src.[c])
    colons

let test_index_levels () =
  let src = {|{"a": 1, "nested": {"x": 2, "y": {"deep": 3}}, "b": 4}|} in
  let idx = Fastjson.Structural_index.build ~max_level:3 src in
  let all lo hi level = Fastjson.Structural_index.colons idx ~level ~lo ~hi in
  let n = String.length src in
  Alcotest.(check int) "level 1 colons" 3 (List.length (all 0 n 1));
  Alcotest.(check int) "level 2 colons" 2 (List.length (all 0 n 2));
  Alcotest.(check int) "level 3 colons" 1 (List.length (all 0 n 3));
  (* range query restricts *)
  let nested_start = String.index_from src 1 '{' + 1 in
  Alcotest.(check bool) "range filters" true
    (List.length (all nested_start n 1) < 3)

let test_index_vs_full_parse_agreement () =
  (* index-driven field extraction agrees with the tree parser *)
  let st = Datagen.rng ~seed:41 in
  let docs = Datagen.tweets st 50 in
  List.iter
    (fun doc ->
      let src = Json.Printer.to_string doc in
      let idx = Fastjson.Structural_index.build src in
      let colons =
        Fastjson.Structural_index.colons idx ~level:1 ~lo:0 ~hi:(String.length src)
      in
      let fields_via_index =
        List.filter_map
          (fun c ->
            match Fastjson.Rawscan.raw_key_at src ~colon:c with
            | Ok (k, _) -> Some k
            | Error _ -> None)
          colons
      in
      let fields_via_parse =
        match doc with Json.Value.Object fs -> List.map fst fs | _ -> []
      in
      Alcotest.(check (list string)) "field names agree" fields_via_parse fields_via_index)
    docs

(* --- mison projection ---------------------------------------------------- *)

let test_projection_correct () =
  let t = Fastjson.Mison.create { Fastjson.Mison.fields = [ "id"; "user" ] } in
  let src = {|{"id": 7, "text": "irrelevant stuff", "user": {"name": "ann"}, "lang": "en"}|} in
  match Fastjson.Mison.parse_string t src with
  | Ok fields ->
      Alcotest.(check int) "two fields" 2 (List.length fields);
      Alcotest.check value "id" (Json.Value.Int 7) (List.assoc "id" fields);
      Alcotest.check value "user" (parse {|{"name": "ann"}|}) (List.assoc "user" fields)
  | Error msg -> Alcotest.fail msg

let test_projection_missing_field () =
  let t = Fastjson.Mison.create { Fastjson.Mison.fields = [ "nope" ] } in
  match Fastjson.Mison.parse_string t {|{"id": 1}|} with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "should find nothing"
  | Error msg -> Alcotest.fail msg

let test_projection_agrees_with_parser () =
  let st = Datagen.rng ~seed:43 in
  let docs = Datagen.tweets st 100 in
  let text = Datagen.to_ndjson docs in
  let fields = [ "id"; "lang"; "retweet_count" ] in
  match Fastjson.Mison.project_ndjson { Fastjson.Mison.fields } text with
  | Error msg -> Alcotest.fail msg
  | Ok rows ->
      Alcotest.(check int) "row count" (List.length docs) (List.length rows);
      List.iter2
        (fun doc row ->
          List.iter
            (fun f ->
              let expected = Json.Value.member f doc in
              let got = List.assoc_opt f row in
              Alcotest.(check (option value)) f expected got)
            fields)
        docs rows

let test_speculation_learns () =
  (* fixed field order: after the first record, every projected field should
     be found at its predicted ordinal *)
  let st = Datagen.rng ~seed:47 in
  let docs = Datagen.events st ~fields:20 300 in
  let text = Datagen.to_ndjson docs in
  match
    Fastjson.Mison.project_ndjson_with_stats { Fastjson.Mison.fields = [ "f3"; "f17" ] } text
  with
  | Error msg -> Alcotest.fail msg
  | Ok (_, s) ->
      Alcotest.(check int) "records" 300 s.Fastjson.Mison.records;
      Alcotest.(check bool)
        (Printf.sprintf "speculation hits (%d) dominate" s.Fastjson.Mison.speculative_hits)
        true
        (s.Fastjson.Mison.speculative_hits >= 2 * 299);
      Alcotest.(check bool)
        (Printf.sprintf "few fallbacks (%d)" s.Fastjson.Mison.fallback_scans)
        true
        (s.Fastjson.Mison.fallback_scans <= 2)


let test_nested_projection () =
  let t = Fastjson.Mison.create { Fastjson.Mison.fields = [ "user.name"; "id"; "user.stats.score" ] } in
  let src =
    {|{"id": 5, "pad": "xxxxxxxxxxxxxxxxxxxx",
       "user": {"bio": "ignore: me", "name": "ann", "stats": {"level": 2, "score": 99}},
       "tail": [1,2,3]}|}
  in
  (* index must be deep enough for the deepest path *)
  let idx = Fastjson.Structural_index.build ~max_level:3 src in
  match Fastjson.Mison.parse_record t idx ~lo:0 ~hi:(String.length src) with
  | Error m -> Alcotest.fail m
  | Ok fields ->
      Alcotest.(check (option value)) "id" (Some (Json.Value.Int 5))
        (List.assoc_opt "id" fields);
      Alcotest.(check (option value)) "user.name" (Some (Json.Value.String "ann"))
        (List.assoc_opt "user.name" fields);
      Alcotest.(check (option value)) "user.stats.score" (Some (Json.Value.Int 99))
        (List.assoc_opt "user.stats.score" fields);
      Alcotest.(check int) "nothing else" 3 (List.length fields)

let test_nested_projection_agrees () =
  let st = Datagen.rng ~seed:71 in
  let docs = Datagen.tweets st 80 in
  let t = Fastjson.Mison.create { Fastjson.Mison.fields = [ "user.screen_name"; "lang" ] } in
  List.iter
    (fun doc ->
      let src = Json.Printer.to_string doc in
      let idx = Fastjson.Structural_index.build ~max_level:2 src in
      match Fastjson.Mison.parse_record t idx ~lo:0 ~hi:(String.length src) with
      | Error m -> Alcotest.fail m
      | Ok fields ->
          let expected =
            Option.bind (Json.Value.member "user" doc) (Json.Value.member "screen_name")
          in
          Alcotest.(check (option value)) "user.screen_name" expected
            (List.assoc_opt "user.screen_name" fields))
    docs

let test_fallback_rescues_escaped_keys () =
  (* a key written a denotes the name a after unescaping, but the raw
     colon scanner compares the escaped byte form and silently misses the
     field; the degradation policy must detect the incomplete projection and
     rescue the record with the full parser *)
  let lines =
    [ {|{"a": 1, "b": "x"}|};
      {|{"\u0061": 2, "b": "y"}|};
      {|{"a": 3, "b": "z"}|} ]
  in
  let t = Fastjson.Mison.create { Fastjson.Mison.fields = [ "a" ] } in
  List.iteri
    (fun i line ->
      let expected =
        match Json.Value.member "a" (Json.Parser.parse_exn line) with
        | Some v -> [ ("a", v) ]
        | None -> []
      in
      match Fastjson.Mison.parse_line t line with
      | Error m -> Alcotest.fail m
      | Ok row ->
          Alcotest.check value
            (Printf.sprintf "line %d matches full parse" (i + 1))
            (Json.Value.Object expected) (Json.Value.Object row))
    lines;
  let s = Fastjson.Mison.stats t in
  Alcotest.(check int) "exactly the escaped record fell back" 1
    s.Fastjson.Mison.full_parse_fallbacks;
  Alcotest.(check int) "all records counted" 3 s.Fastjson.Mison.records

let test_fallback_respects_budget () =
  (* the rescue path runs under the caller's parser options, so ingestion
     budgets still bound the full re-parse: when the budget kills the rescue
     of an escaped-key record, the fast path's (empty) projection stands
     rather than becoming a hard failure; both paths failing is an error *)
  let t = Fastjson.Mison.create { Fastjson.Mison.fields = [ "a" ] } in
  let options = { Json.Parser.default_options with Json.Parser.max_nodes = Some 2 } in
  (match Fastjson.Mison.parse_line ~options t {|{"\u0061": [1, 2, 3]}|} with
   | Ok row -> Alcotest.(check int) "fast-path projection kept" 0 (List.length row)
   | Error m -> Alcotest.failf "degradation should not hard-fail: %s" m);
  match Fastjson.Mison.parse_line ~options t {|{"a": oops}|} with
  | Ok _ -> Alcotest.fail "malformed record should fail both paths"
  | Error _ -> ()

(* --- fadjs ---------------------------------------------------------------- *)

let test_fadjs_lazy_and_deopt () =
  let d = Fastjson.Fadjs.create () in
  let src = {|{"a": 1, "b": {"big": [1,2,3]}, "c": "s"}|} in
  (match Fastjson.Fadjs.decode d src with
   | Error m -> Alcotest.fail m
   | Ok doc ->
       (* nothing profiled: everything skipped *)
       let s = Fastjson.Fadjs.stats d in
       Alcotest.(check int) "skipped all" 3 s.Fastjson.Fadjs.skipped_fields;
       Alcotest.(check int) "eager none" 0 s.Fastjson.Fadjs.eager_fields;
       (* access deoptimizes *)
       Alcotest.(check (option value)) "a" (Some (Json.Value.Int 1))
         (Fastjson.Fadjs.get doc "a");
       let s = Fastjson.Fadjs.stats d in
       Alcotest.(check int) "one deopt" 1 s.Fastjson.Fadjs.deopts;
       (* second access hits the cached parse *)
       ignore (Fastjson.Fadjs.get doc "a");
       Alcotest.(check int) "still one deopt" 1 (Fastjson.Fadjs.stats d).Fastjson.Fadjs.deopts);
  (* the profile learned "a": next decode parses it eagerly *)
  match Fastjson.Fadjs.decode d src with
  | Error m -> Alcotest.fail m
  | Ok doc2 ->
      let s = Fastjson.Fadjs.stats d in
      Alcotest.(check int) "eager after learning" 1 s.Fastjson.Fadjs.eager_fields;
      ignore (Fastjson.Fadjs.get doc2 "a");
      Alcotest.(check int) "no new deopt" 1 (Fastjson.Fadjs.stats d).Fastjson.Fadjs.deopts

let test_fadjs_matches_parser () =
  let st = Datagen.rng ~seed:53 in
  let docs = Datagen.tweets st 50 in
  let d = Fastjson.Fadjs.create ~eager:[ "id" ] () in
  List.iter
    (fun doc ->
      let src = Json.Printer.to_string doc in
      match Fastjson.Fadjs.decode d src with
      | Error m -> Alcotest.fail m
      | Ok lazy_doc ->
          Alcotest.check value "materialize = parse" doc
            (Fastjson.Fadjs.materialize lazy_doc);
          Alcotest.(check (option value)) "get user.name"
            (Json.Value.member "user" doc
            |> Option.map (fun u -> Option.get (Json.Value.member "name" u)))
            (Fastjson.Fadjs.get_path lazy_doc [ "user"; "name" ]))
    docs

let test_fadjs_stable_pattern_no_deopts () =
  let st = Datagen.rng ~seed:59 in
  let docs = Datagen.events st ~fields:12 200 in
  let d = Fastjson.Fadjs.create ~eager:[ "f1" ] () in
  List.iter
    (fun doc ->
      let src = Json.Printer.to_string doc in
      match Fastjson.Fadjs.decode d src with
      | Error m -> Alcotest.fail m
      | Ok lazy_doc -> ignore (Fastjson.Fadjs.get lazy_doc "f1"))
    docs;
  let s = Fastjson.Fadjs.stats d in
  Alcotest.(check int) "no deopts on stable pattern" 0 s.Fastjson.Fadjs.deopts;
  Alcotest.(check int) "eager each time" 200 s.Fastjson.Fadjs.eager_fields

let test_fadjs_rejects_non_objects () =
  let d = Fastjson.Fadjs.create () in
  match Fastjson.Fadjs.decode d "[1,2]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arrays are not Fad.js documents"

let () =
  Alcotest.run "fastjson"
    [ ("rawscan",
       [ Alcotest.test_case "skip_value" `Quick test_skip_value;
         Alcotest.test_case "raw_key_at" `Quick test_raw_key_at;
         Alcotest.test_case "skim_value = parser" `Quick
           test_skim_value_matches_parser ]);
      ("index",
       [ Alcotest.test_case "quotes & string mask" `Quick test_index_quotes_and_strings;
         Alcotest.test_case "leveled colons" `Quick test_index_levels;
         Alcotest.test_case "agrees with parser" `Quick test_index_vs_full_parse_agreement ]);
      ("mison",
       [ Alcotest.test_case "projection" `Quick test_projection_correct;
         Alcotest.test_case "missing field" `Quick test_projection_missing_field;
         Alcotest.test_case "agrees with parser" `Quick test_projection_agrees_with_parser;
         Alcotest.test_case "speculation learns" `Quick test_speculation_learns;
         Alcotest.test_case "nested projection" `Quick test_nested_projection;
         Alcotest.test_case "nested agrees with parser" `Quick test_nested_projection_agrees;
         Alcotest.test_case "fallback rescues escaped keys" `Quick test_fallback_rescues_escaped_keys;
         Alcotest.test_case "fallback respects budget" `Quick test_fallback_respects_budget ]);
      ("fadjs",
       [ Alcotest.test_case "lazy + deopt" `Quick test_fadjs_lazy_and_deopt;
         Alcotest.test_case "matches parser" `Quick test_fadjs_matches_parser;
         Alcotest.test_case "stable pattern" `Quick test_fadjs_stable_pattern_no_deopts;
         Alcotest.test_case "rejects non-objects" `Quick test_fadjs_rejects_non_objects ]);
    ]
