type inferred = {
  jtype : Jtype.Types.t;
  counting : Jtype.Counting.t;
  json_schema : Json.Value.t;
  typescript : string;
  swift : string;
}

let build_inferred ~name t c =
  {
    jtype = t;
    counting = c;
    json_schema = Jtype.Interop.to_schema_json t;
    typescript = Jtype.Typescript.declaration ~name t;
    swift = Jtype.Swift.declaration ~name t;
  }

let infer ?(equiv = Jtype.Merge.Kind) ?(name = "Root") ?(jobs = 1)
    ?(telemetry = Telemetry.nop) values =
  let t = Parallel.infer_type ~equiv ~jobs ~telemetry values in
  let c = Parallel.infer_counting ~equiv ~jobs ~telemetry values in
  build_inferred ~name t c

(* --- the shard executor ------------------------------------------------- *)

type engine = [ `Tree | `Streaming ]

(* What one document becomes: the operation fixes the per-document payload,
   the engine only how the document is read *)
type _ operation =
  | Ingest : Json.Value.t operation
  | Infer : Jtype.Merge.equiv -> (Jtype.Types.t * Jtype.Counting.t) operation
  | Validate : {
      config : Jsonschema.Validate.config option;
      compiled : bool;
      root : Json.Value.t;
    }
      -> (unit, Jsonschema.Validate.error list) result operation

type 'd doc_step =
  options:Json.Parser.options -> telemetry:Telemetry.sink -> string ->
  pos:int -> ('d * int, Json.Parser.error) result

(* The per-document step, and the one place the engine is chosen. The tree
   engine parses a value and applies the operation to it; the streaming
   engine folds the tokens directly, for validation only when the schema
   compiles to a plan. Both consume the same bytes and return the same
   payload or the same parse error, so everything downstream — dead
   letters, reduce, journal — is shared. Returns the tag of the engine that
   actually runs (the journal header records it) and a factory called once
   per shard on the domain that runs it, so per-shard scratch (the
   streaming engine's interning table) never crosses a domain. The plan is
   compiled here, once for every shard and retry attempt. *)
let doc_step : type d.
    engine:engine -> telemetry:Telemetry.sink -> d operation ->
    string * (unit -> d doc_step) =
 fun ~engine ~telemetry op ->
  let tree f =
    ( "tree",
      fun () ~options ~telemetry src ~pos ->
        match Json.Parser.parse_substring ~options ~telemetry src ~pos with
        | Ok (v, stop) -> Ok (f v, stop)
        | Error e -> Error e )
  in
  match (op, engine) with
  | Ingest, _ -> tree Fun.id
  | Infer equiv, `Tree ->
      tree (fun v -> (Jtype.Types.of_value v, Jtype.Counting.of_value ~equiv v))
  | Infer equiv, `Streaming ->
      ( "streaming",
        fun () ->
          let scratch = Inference.Streaming.scratch () in
          fun ~options ~telemetry src ~pos ->
            Inference.Streaming.infer_tokens ~options ~telemetry ~scratch
              ~equiv src ~pos )
  | Validate { config; compiled = false; root }, _ ->
      tree (Jsonschema.Validate.validate ?config ~root)
  | Validate { config; compiled = true; root }, _ -> (
      match (Jsonschema.Compile.plan_for ~telemetry root, engine) with
      | Ok plan, `Streaming ->
          ( "streaming",
            fun () ~options ~telemetry src ~pos ->
              Jsonschema.Compile.run_stream ?config ~options ~telemetry plan
                src ~pos )
      | Ok plan, `Tree -> tree (Jsonschema.Compile.run ?config plan)
      (* a malformed schema fails every document with the compiler's
         error list, which is what the interpreter reports *)
      | Error es, _ -> tree (fun _ -> Error es))

type supervision = {
  sup_stats : Supervisor.stats;
  sup_resumed : int;
}

(* The journal form of one shard's per-document payloads. [decode] may
   return a shorter list that stands for the same documents — inference
   journals one merged pair per shard — so long as reducing it gives what
   reducing the original gives. Exact round trips are what make a resumed
   run byte-identical. *)
type 'd codec = {
  encode : 'd list -> Json.Value.t;
  decode : Json.Value.t -> ('d list, string) result;
}

let ( let* ) = Result.bind

(* a poisoned shard becomes one dead letter in whole-input coordinates, so
   quarantine triage reads the same whether a single document or a whole
   shard was lost *)
let poison_letter ~(sh : Parallel.shard) ~failure ~attempts text =
  let len = min 80 sh.Parallel.s_len in
  { Resilient.line = sh.Parallel.s_line;
    byte_offset = sh.Parallel.s_off;
    error =
      Printf.sprintf "shard at line %d poisoned after %d attempt%s: %s"
        sh.Parallel.s_line attempts
        (if attempts = 1 then "" else "s")
        (Supervisor.failure_describe failure);
    kind = Resilient.Shard (Supervisor.failure_label failure);
    cause = Supervisor.failure_describe failure;
    attempts;
    raw_prefix = String.sub text sh.Parallel.s_off len }

(* fuse per-shard results into one ingest: completed shards contribute their
   dead letters, poisoned shards one synthetic letter each; global
   dead-letter order and summed reports exactly as one sequential scan
   produces them *)
let merge_shards results text =
  let dead =
    List.concat_map
      (fun (sh, r) ->
        match r with
        | `Done ((ing : Resilient.ingest), _) -> ing.Resilient.dead
        | `Poisoned (failure, attempts) ->
            [ poison_letter ~sh ~failure ~attempts text ])
      results
    |> List.stable_sort Parallel.dead_order
  in
  let report =
    List.fold_left
      (fun acc (_, r) ->
        match r with
        | `Done ((ing : Resilient.ingest), _) ->
            Parallel.merge_reports acc ing.Resilient.report
        | `Poisoned _ ->
            { acc with Resilient.poisoned = acc.Resilient.poisoned + 1 })
      Resilient.empty_report results
  in
  { Resilient.docs = []; dead; report }

(* The one executor behind every NDJSON pipeline. The input is cut into
   newline-aligned shards (a [max_docs] budget is a global order-dependent
   cap, so it keeps the whole input as one shard); each shard runs
   [Resilient.ingest_with] with the operation's per-document step under
   [Supervisor.run]. With a [checkpoint], each completed shard's payloads
   are journaled through [codec] and a resumed run restores journaled
   shards instead of running them; fresh shards then decode their own
   encoding too, so resumed and fresh shards take one path. Returns the
   completed shards' payloads concatenated in input order, the merged
   ingest ([docs] empty) and the supervision summary; the caller reduces
   the payloads once, on its own domain, where the kernel's per-domain
   merge caches outlive the pool. [Error] only for an unusable journal; a
   shard that raises is poisoned like any other failure. *)
let execute ?(budget = Resilient.default_budget) ?options
    ?(policy = Supervisor.default_policy) ?inject ?checkpoint ?(resume = false)
    ?(jobs = 1) ?(telemetry = Telemetry.nop) ~job ~engine ~op ~codec text =
  let engine_tag, step = doc_step ~engine ~telemetry op in
  let n = String.length text in
  let shards =
    if n = 0 then []
    else if budget.Resilient.max_docs <> None then
      [ { Parallel.s_off = 0; s_len = n; s_line = 1 } ]
    else Parallel.shards ~jobs text
  in
  let sharded = List.compare_length_with shards 1 > 0 in
  let in_span name f =
    if sharded then Telemetry.span telemetry name f else f ()
  in
  if sharded then
    Telemetry.count telemetry "parallel.shards" (List.length shards);
  let* journal, entries =
    match checkpoint with
    | None -> Ok (None, [])
    | Some path ->
        Result.map
          (fun (j, entries) -> (Some j, entries))
          (Checkpoint.start ~path ~resume ~job:(Lazy.force job)
             ~engine:engine_tag ~input:text)
  in
  let find_entry (sh : Parallel.shard) =
    List.find_opt
      (fun e ->
        e.Checkpoint.e_off = sh.Parallel.s_off
        && e.Checkpoint.e_len = sh.Parallel.s_len
        && e.Checkpoint.e_line = sh.Parallel.s_line)
      entries
  in
  let tagged = List.map (fun sh -> (sh, find_entry sh)) shards in
  let resumed_n =
    List.fold_left (fun n (_, e) -> if e = None then n else n + 1) 0 tagged
  in
  if resumed_n > 0 then
    Telemetry.count telemetry "checkpoint.resumed_shards" resumed_n;
  let pending =
    List.concat
      (List.mapi (fun i (sh, e) -> if e = None then [ (i, sh) ] else []) tagged)
  in
  (* pending shards keep their *global* index, so a deterministic fault plan
     (Chaos.worker_faults) hits the same shards in a resumed run as in the
     original — and never hits already-journaled ones *)
  let globals = Array.of_list (List.map fst pending) in
  let inject =
    Option.map
      (fun plan ~shard ~attempt -> plan ~shard:globals.(shard) ~attempt)
      inject
  in
  (* the journal is shared across pool domains; entries land in completion
     order, which is fine — resume matches by coordinates, not position *)
  let jmutex = Mutex.create () in
  let record j (sh : Parallel.shard) ing pjson =
    Mutex.lock jmutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock jmutex)
      (fun () ->
        Checkpoint.record j
          { Checkpoint.e_off = sh.Parallel.s_off;
            e_len = sh.Parallel.s_len;
            e_line = sh.Parallel.s_line;
            e_ingest = ing;
            e_payload = pjson })
  in
  let run_shard (sh : Parallel.shard) ~attempt ~tick =
    (* a shard spanning the whole input is the input itself, not a copy *)
    let src =
      if sh.Parallel.s_len = n then text
      else String.sub text sh.Parallel.s_off sh.Parallel.s_len
    in
    let payloads, dead, report =
      in_span "ingest.shard" (fun () ->
          Resilient.ingest_with ~budget ?options ~first_line:sh.Parallel.s_line
            ~base_offset:sh.Parallel.s_off ~attempt ~tick ~telemetry
            ~parse_doc:(step ()) src)
    in
    let ing = { Resilient.docs = []; dead; report } in
    match journal with
    | None -> (ing, `Payloads payloads)
    | Some j ->
        let pjson = codec.encode payloads in
        record j sh ing pjson;
        (ing, `Json pjson)
  in
  let outcomes, stats =
    Supervisor.run ~policy ~telemetry ?inject ~jobs
      (List.map (fun (_, sh) -> run_shard sh) pending)
  in
  let rec zip tagged outcomes =
    match (tagged, outcomes) with
    | [], _ -> []
    | (sh, Some e) :: rest, _ ->
        (sh, `Done (e.Checkpoint.e_ingest, `Json e.Checkpoint.e_payload))
        :: zip rest outcomes
    | (sh, None) :: rest, Supervisor.Done { value; _ } :: out ->
        (sh, `Done value) :: zip rest out
    | (sh, None) :: rest, Supervisor.Poisoned { failure; attempts } :: out ->
        (sh, `Poisoned (failure, attempts)) :: zip rest out
    | (_, None) :: _, [] -> assert false (* one outcome per pending shard *)
  in
  let results = zip tagged outcomes in
  Option.iter Checkpoint.close journal;
  let ingest = in_span "ingest.merge" (fun () -> merge_shards results text) in
  (* a corrupt journal surfaces as an explicit error, never as silently
     different output *)
  let rec payloads acc = function
    | [] -> Ok (List.rev acc)
    | (_, `Done (_, `Payloads ds)) :: rest -> payloads (ds :: acc) rest
    | (_, `Done (_, `Json j)) :: rest ->
        let* ds = codec.decode j in
        payloads (ds :: acc) rest
    | (_, `Poisoned _) :: rest -> payloads acc rest
  in
  let* parts = payloads [] results in
  let ds = match parts with [ ds ] -> ds | parts -> List.concat parts in
  Ok (ds, ingest, { sup_stats = stats; sup_resumed = resumed_n })

(* Without a journal [execute] cannot fail. *)
let unjournaled = function Ok v -> v | Error e -> invalid_arg e

let docs_codec =
  { encode = (fun docs -> Json.Value.Array docs);
    decode =
      (function
      | Json.Value.Array docs -> Ok docs
      | _ -> Error "checkpoint: ingest payload must be an array") }

let ingest_ndjson_supervised ?budget ?options ?policy ?inject ?checkpoint
    ?resume ?jobs ?telemetry text =
  let* docs, ingest, sup =
    execute ?budget ?options ?policy ?inject ?checkpoint ?resume ?jobs
      ?telemetry ~job:(lazy "ingest") ~engine:`Tree ~op:Ingest
      ~codec:docs_codec text
  in
  Ok ({ ingest with Resilient.docs }, sup)

let equiv_tag = function Jtype.Merge.Kind -> "kind" | Jtype.Merge.Label -> "label"

(* Inference under any policy: one reduce over every document's pair, for
   either engine and any job count — the same merges over the same document
   order, so the same hash-consed result. A journaled shard stores its
   pairs already merged to one; merging that in is the same as merging
   them, since the merge is associative. [infer.merge_ops] counts both
   folds over all documents. *)
let infer_run ?(equiv = Jtype.Merge.Kind) ?budget ?options ?policy ?inject
    ?checkpoint ?resume ?(engine = `Streaming) ?jobs
    ?(telemetry = Telemetry.nop) text =
  Parallel.with_kernel_stats telemetry @@ fun () ->
  let merge pairs =
    Telemetry.span telemetry "infer" (fun () ->
        ( Jtype.Merge.merge_all ~equiv (List.map fst pairs),
          Jtype.Counting.merge_all ~equiv (List.map snd pairs) ))
  in
  let codec =
    { encode =
        (fun pairs ->
          let t, c = merge pairs in
          Json.Value.Object
            [ ("jtype", Jtype.Types.to_json t);
              ("counting", Jtype.Counting.to_json c) ]);
      decode =
        (function
        | Json.Value.Object fields -> (
            match
              (List.assoc_opt "jtype" fields, List.assoc_opt "counting" fields)
            with
            | Some tj, Some cj ->
                let* t = Jtype.Types.of_json tj in
                let* c = Jtype.Counting.of_json cj in
                Ok [ (t, c) ]
            | _ -> Error "checkpoint: inference payload missing jtype/counting")
        | _ -> Error "checkpoint: inference payload must be an object") }
  in
  let* pairs, ingest, sup =
    execute ?budget ?options ?policy ?inject ?checkpoint ?resume ?jobs
      ~telemetry
      ~job:(lazy ("infer:" ^ equiv_tag equiv))
      ~engine ~op:(Infer equiv) ~codec text
  in
  let t, c = merge pairs in
  if Telemetry.is_recording telemetry then begin
    Telemetry.count telemetry "infer.merge_ops"
      (2 * max 0 (ingest.Resilient.report.Resilient.ok - 1));
    Telemetry.observe telemetry "infer.union_width"
      (float_of_int (Inference.Parametric.union_width t))
  end;
  Ok ((t, c), ingest, sup)

let infer_ndjson_supervised ?equiv ?(name = "Root") ?budget ?options ?policy
    ?inject ?checkpoint ?resume ?engine ?jobs ?telemetry text =
  let* (t, c), ingest, sup =
    infer_run ?equiv ?budget ?options ?policy ?inject ?checkpoint ?resume
      ?engine ?jobs ?telemetry text
  in
  let inferred =
    if ingest.Resilient.report.Resilient.ok = 0 then None
    else Some (build_inferred ~name t c)
  in
  Ok (inferred, ingest, sup)

let infer_ndjson_resilient ?equiv ?name ?budget ?engine ?jobs ?telemetry text =
  let inferred, ingest, _ =
    unjournaled
      (infer_ndjson_supervised ?equiv ?name ?budget ~policy:Supervisor.no_retry
         ?engine ?jobs ?telemetry text)
  in
  (inferred, ingest)

let infer_ndjson ?equiv ?(name = "Root") ?engine ?jobs ?telemetry text =
  let (t, c), ingest, _ =
    unjournaled
      (infer_run ?equiv ~budget:Resilient.unbounded_budget
         ~policy:Supervisor.no_retry ?engine ?jobs ?telemetry text)
  in
  match ingest.Resilient.dead with
  | d :: _ -> Error d.Resilient.error
  | [] -> Ok (build_inferred ~name t c)

let validate_collection ?config ?compiled ?(jobs = 1) ?telemetry ~root values =
  let failures =
    Parallel.validate ?config ?compiled ~jobs ?telemetry ~root values
  in
  if failures = [] then Ok (List.length values) else Error failures

let validation_error_to_json (e : Jsonschema.Validate.error) =
  Json.Value.Object
    [ ("instance", Json.Value.String (Json.Pointer.to_string e.Jsonschema.Validate.instance_at));
      ("schema", Json.Value.String (Json.Pointer.to_string e.Jsonschema.Validate.schema_at));
      ("message", Json.Value.String e.Jsonschema.Validate.message) ]

let validation_error_of_json j =
  match j with
  | Json.Value.Object fields -> (
      match
        ( List.assoc_opt "instance" fields,
          List.assoc_opt "schema" fields,
          List.assoc_opt "message" fields )
      with
      | Some (Json.Value.String i), Some (Json.Value.String s),
        Some (Json.Value.String m) ->
          let* instance_at = Json.Pointer.parse i in
          let* schema_at = Json.Pointer.parse s in
          Ok { Jsonschema.Validate.instance_at; schema_at; message = m }
      | _ -> Error "checkpoint: malformed validation error")
  | _ -> Error "checkpoint: validation error must be an object"

(* one entry per document: [null] when it validated, else its errors *)
let verdicts_codec =
  let rec errors acc = function
    | [] -> Ok (Error (List.rev acc))
    | ej :: more ->
        let* e = validation_error_of_json ej in
        errors (e :: acc) more
  in
  let rec decode acc = function
    | [] -> Ok (List.rev acc)
    | Json.Value.Null :: rest -> decode (Ok () :: acc) rest
    | Json.Value.Array ejs :: rest ->
        let* v = errors [] ejs in
        decode (v :: acc) rest
    | _ :: _ -> Error "checkpoint: malformed validation verdict"
  in
  { encode =
      (fun verdicts ->
        Json.Value.Array
          (List.map
             (function
               | Ok () -> Json.Value.Null
               | Error es ->
                   Json.Value.Array (List.map validation_error_to_json es))
             verdicts));
    decode =
      (function
      | Json.Value.Array items -> decode [] items
      | _ -> Error "checkpoint: validation payload must be an array") }

let validate_ndjson_supervised ?config ?(compiled = true) ?budget ?options
    ?policy ?inject ?checkpoint ?resume ?(engine = `Streaming) ?jobs
    ?telemetry ~root text =
  (* the schema is part of the job identity: a journal written against one
     schema must not resume a run against another. Fingerprinting prints the
     whole schema, so only a journaled run pays for it. *)
  let job =
    lazy ("validate:" ^ Checkpoint.fingerprint (Json.Printer.to_string root))
  in
  let* verdicts, ingest, sup =
    execute ?budget ?options ?policy ?inject ?checkpoint ?resume ?jobs
      ?telemetry ~job ~engine
      ~op:(Validate { config; compiled; root })
      ~codec:verdicts_codec text
  in
  (* indices into the surviving documents, in input order *)
  let failures =
    List.mapi
      (fun i v -> match v with Ok () -> None | Error es -> Some (i, es))
      verdicts
    |> List.filter_map Fun.id
  in
  Ok (ingest, failures, sup)

let validate_ndjson ?config ?compiled ?budget ?engine ?jobs ?telemetry ~root
    text =
  let ingest, failures, _ =
    unjournaled
      (validate_ndjson_supervised ?config ?compiled ?budget
         ~policy:Supervisor.no_retry ?engine ?jobs ?telemetry ~root text)
  in
  (ingest, failures)

let validate_ndjson_strict ?config ?compiled ?engine ?jobs ?telemetry ~root
    text =
  let ingest, failures =
    validate_ndjson ?config ?compiled ~budget:Resilient.unbounded_budget
      ?engine ?jobs ?telemetry ~root text
  in
  match ingest.Resilient.dead with
  | d :: _ -> Error d.Resilient.error
  | [] -> Ok (ingest.Resilient.report.Resilient.ok, failures)

type checked = {
  chk_inferred : inferred option;
  chk_verdict : Jtype.Contain.verdict option;
}

(* The containment step runs outside [Parallel.with_kernel_stats] (the
   inference phase already wraps itself — nesting would double-count), so
   its kernel counters are snapshotted by hand. All three [subtype.*]
   keys are characteristic of the check pipeline and land in the sink
   whenever any subtype work happened. *)
let subtype_counter_delta telemetry f =
  if not (Telemetry.is_recording telemetry) then f ()
  else begin
    let get totals k = Option.value ~default:0 (List.assoc_opt k totals) in
    let before = Jtype.Kernel.totals () in
    let r = f () in
    let after = Jtype.Kernel.totals () in
    List.iter
      (fun k -> Telemetry.count telemetry k (get after k - get before k))
      [ "subtype.queries"; "subtype.hits"; "subtype.unknown" ];
    r
  end

let check_ndjson ?equiv ?name ?budget ?options ?policy ?inject ?checkpoint
    ?resume ?engine ?jobs ?telemetry ?vconfig ~root text =
  match
    infer_ndjson_supervised ?equiv ?name ?budget ?options ?policy ?inject
      ?checkpoint ?resume ?engine ?jobs ?telemetry text
  with
  | Error e -> Error e
  | Ok (inferred, ingest, sup) ->
      let tele = Option.value telemetry ~default:Telemetry.nop in
      let verdict =
        Option.map
          (fun inf ->
            subtype_counter_delta tele (fun () ->
                Jtype.Contain.check ?config:vconfig ~root inf.jtype))
          inferred
      in
      Ok ({ chk_inferred = inferred; chk_verdict = verdict }, ingest, sup)

let profile values =
  let t = Inference.Parametric.infer ~equiv:Jtype.Merge.Kind values in
  let mongo = Inference.Mongo.analyze values in
  let sk = Inference.Skeleton.build values in
  let total_bytes =
    List.fold_left (fun acc v -> acc + String.length (Json.Printer.to_string v)) 0 values
  in
  Json.Value.Object
    [ ("documents", Json.Value.Int (List.length values));
      ("json_bytes", Json.Value.Int total_bytes);
      ("inferred_type", Json.Value.String (Jtype.Types.to_string t));
      ("type_size", Json.Value.Int (Jtype.Types.size t));
      ("field_statistics", Inference.Mongo.to_json mongo);
      ("skeleton",
       Json.Value.Object
         [ ("structures",
            Json.Value.Array
              (List.map
                 (fun (s, n) ->
                   Json.Value.Object
                     [ ("structure",
                        Json.Value.String (Inference.Skeleton.structure_to_string s));
                       ("count", Json.Value.Int n) ])
                 sk.Inference.Skeleton.groups));
           ("documents_outside_skeleton", Json.Value.Int sk.Inference.Skeleton.dropped) ]) ]

type translated = {
  avro_schema : Json.Value.t;
  avro_bytes : string;
  columnar_bytes : string;
  json_bytes : int;
}

let translate ?(equiv = Jtype.Merge.Kind) values =
  let t = Inference.Parametric.infer ~equiv values in
  let avro_schema = Translate.Avro.of_jtype ~name:"root" t in
  match Translate.Avro.encode_all avro_schema values with
  | Error m -> Error ("avro: " ^ m)
  | Ok avro_bytes -> (
      let spark = Inference.Spark.infer values in
      match Translate.Columnar.shred ~schema:spark values with
      | Error m -> Error ("columnar: " ^ m)
      | Ok table ->
          Ok
            {
              avro_schema = Translate.Avro.schema_to_json avro_schema;
              avro_bytes;
              columnar_bytes = Translate.Columnar.encode table;
              json_bytes = String.length (Datagen.to_ndjson values);
            })

let translate_ndjson ?equiv ?budget text =
  let r, _ =
    unjournaled
      (ingest_ndjson_supervised ?budget ~policy:Supervisor.no_retry text)
  in
  match r.Resilient.docs with
  | [] -> (None, r)
  | docs -> (Some (translate ?equiv docs), r)
