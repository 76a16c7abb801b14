(* The job-mix benchmark. One run = one workload and one seed:

     bench.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 times the job mix a jsontool user runs (infer, validate,
   check) untraced and reports the end-to-end metrics; --trace 1 times the
   benchmark's own calls into each layer's public functions and reports
   the per-layer metrics. Every op's output is checked against a reference
   from the spec engines. The last line of stdout is one JSON object. *)

module P = Core.Pipeline
module W = Workload
module V = Json.Value

let now = Unix.gettimeofday

(* [Gc.quick_stat] sums the allocation of every domain, the pool's workers
   included; [Gc.minor_words] sees the calling domain only. *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* Before each timed op: a fresh jsontool process starts with no compiled
   plans, no merge memos and a compact heap, so every op pays for those. *)
let cold () =
  Jsonschema.Compile.clear_cache ();
  Jtype.Merge.clear_caches ();
  Gc.compact ()

(* result, seconds, minor words allocated *)
let measure f =
  let w0 = minor_words () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  (r, dt, minor_words () -. w0)

let median = function
  | [] -> invalid_arg "median of no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mb bytes = float_of_int bytes /. 1e6

(* --- scratch files: checkpoint journals and heap-probe inputs ----------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all

let file_size path = (Unix.stat path).Unix.st_size

(* A fresh journal path per call, so [check] never resumes. *)
let fresh_journal =
  let n = ref 0 in
  fun dir ->
    incr n;
    let path = Filename.concat dir (Printf.sprintf "journal-%d.ndjson" !n) in
    remove_if_exists path;
    path

(* --- the job mix ---------------------------------------------------------- *)

(* [run ()] is the timed call; the closure it returns renders the output
   for checking, outside the timed span. *)
type op = { name : string; run : unit -> unit -> Expect.t }

let job_mix (w : W.t) ~dir =
  let jobs = w.W.spec.W.jobs and root = w.W.root and text = w.W.text in
  [ { name = "infer";
      run = (fun () ->
        let r = P.infer_ndjson_resilient ~jobs text in
        fun () -> Expect.infer r) };
    { name = "validate";
      run = (fun () ->
        let r = P.validate_ndjson ~jobs ~root text in
        fun () -> Expect.validate r) };
    { name = "check";
      run = (fun () ->
        let checkpoint =
          if w.W.spec.W.journal then Some (fresh_journal dir) else None
        in
        let r = P.check_ndjson ~jobs ?checkpoint ~root text in
        Option.iter remove_if_exists checkpoint;
        let r = Expect.ok_or_fail r in
        fun () -> Expect.check ~root r) } ]

let expected_for (r : Expect.reference) = function
  | "infer" -> r.Expect.r_infer
  | "validate" -> r.Expect.r_validate
  | _ -> r.Expect.r_check

type tally = { mutable attempted : int; mutable failed : int }

(* Count one op's output: a mismatch with the reference is a failed op. *)
let record ?(log = true) tally ~what ~expected actual =
  tally.attempted <- tally.attempted + 1;
  match Expect.diff ~expected actual with
  | [] -> ()
  | ks ->
      tally.failed <- tally.failed + 1;
      if log then
        Printf.eprintf "FAILED %s: differs from the reference in %s\n%!" what
          (String.concat ", " ks)

(* One timed op in cold state; [None] when it raised (counted as failed). *)
let run_op tally ~reference ?(wrap = fun _ f -> f ()) (op : op) =
  cold ();
  match wrap op.name (fun () -> measure op.run) with
  | render, dt, words ->
      record tally ~what:op.name ~expected:(expected_for reference op.name) (render ());
      Some (dt, words)
  | exception e ->
      tally.attempted <- tally.attempted + 1;
      tally.failed <- tally.failed + 1;
      Printf.eprintf "FAILED %s: raised %s\n%!" op.name (Printexc.to_string e);
      None

(* --- self-tests of the instruments --------------------------------------- *)

(* The output check must count a deliberately altered output as failed. *)
let altered_outputs_counted (r : Expect.reference) =
  List.for_all
    (fun expected ->
      let altered = List.map (fun (k, v) -> (k, v ^ "#altered")) expected in
      let t = { attempted = 0; failed = 0 } in
      record ~log:false t ~what:"self-test" ~expected altered;
      t.failed = 1)
    [ r.Expect.r_infer; r.Expect.r_validate; r.Expect.r_check ]

(* Allocation is read over all domains: the same op at jobs=1 and jobs=2
   must allocate within a tenth of each other. *)
let alloc_counts_all_domains (w : W.t) =
  let words jobs =
    cold ();
    let _, _, words = measure (fun () -> P.infer_ndjson_resilient ~jobs w.W.text) in
    words
  in
  let w1 = words 1 and w2 = words 2 in
  let ok = Float.abs (w2 -. w1) <= 0.1 *. w1 in
  if not ok then
    Printf.eprintf "self-test: infer allocated %.0f words at jobs=1, %.0f at jobs=2\n%!" w1 w2;
  ok

(* --- peak heap, in a fresh process per probe ----------------------------- *)

(* The child reads the corpus and schema the parent wrote, runs the job mix
   once, and prints its peak major heap in words. A fresh process means no
   earlier run can inflate the peak. At jobs=2 the peak moves by up to a
   fifth with the collector's timing against the two domains, so the metric
   is the lowest of several probes. *)
let run_heap_child ~dir spec =
  let text = read_file (Filename.concat dir "corpus.ndjson") in
  let root = Json.Parser.parse_exn (read_file (Filename.concat dir "schema.json")) in
  let plan = Result.get_ok (Jsonschema.Compile.compile root) in
  let w = { W.spec; text; corrupting = 0; faulted = ""; root; plan } in
  List.iter (fun (op : op) -> cold (); ignore (op.run () : unit -> Expect.t)) (job_mix w ~dir);
  Printf.printf "%d\n" (Gc.quick_stat ()).Gc.top_heap_words

let peak_heap_mb (w : W.t) ~dir ~probes =
  write_file (Filename.concat dir "corpus.ndjson") w.W.text;
  write_file (Filename.concat dir "schema.json") (Json.Printer.to_string w.W.root);
  let probe () =
    flush_all ();
    let ic =
      Unix.open_process_args_in Sys.executable_name
        [| Sys.executable_name; "--heap-child"; dir; "--workload"; w.W.spec.W.name |]
    in
    let line = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 ->
        float_of_string (String.trim line) *. float_of_int (Sys.word_size / 8) /. 1e6
    | _ -> failwith "heap probe failed"
  in
  List.fold_left Float.min Float.infinity (List.init probes (fun _ -> probe ()))

(* --- end-to-end run -------------------------------------------------------- *)

type metric = { m_name : string; value : float; unit_ : string }

(* Named sample lists, newest first. *)
let samples () = Hashtbl.create 32

let add tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let get tbl k = Hashtbl.find tbl k

(* The host this benchmark was tuned on runs in contention phases that slow
   every process on it, a pure CPU loop included, by up to 40% for seconds
   at a time. The fastest op of a run is the figure that repeats from run to
   run, so throughput reports it; the median is printed beside it. *)
let best = List.fold_left Float.max Float.neg_infinity

(* One set-up in cold state, timed. *)
let timed_setup spec ~seed =
  Gc.compact ();
  let t0 = now () in
  let w = W.setup spec ~seed in
  (w, now () -. t0)

(* Set-up is repeated at even intervals through the timed window, so its
   median, like the throughputs, samples the whole run rather than the
   host's state in its first seconds. *)
let setups = 5

let end_to_end (w : W.t) ~seed ~setup_s ~reference ~tally ~seconds ~dir =
  let bytes = String.length w.W.text in
  let tbl = samples () in
  add tbl "setup_s" setup_s;
  let ops = job_mix w ~dir in
  let start = now () in
  let deadline = start +. seconds in
  while now () < deadline do
    List.iter
      (fun (op : op) ->
        match run_op tally ~reference op with
        | Some (dt, words) ->
            add tbl (op.name ^ "_mb_s") (mb bytes /. dt);
            add tbl (op.name ^ "_alloc_wpb") (words /. float_of_int bytes)
        | None -> ())
      ops;
    let due = List.length (get tbl "setup_s") in
    if due < setups && now () >= start +. (seconds *. float_of_int due /. float_of_int setups)
    then add tbl "setup_s" (snd (timed_setup w.W.spec ~seed))
  done;
  List.iter
    (fun (op : op) ->
      let xs = get tbl (op.name ^ "_mb_s") in
      Printf.printf "  %-8s %3d ops: median %8.3f MB/s, best %8.3f MB/s\n" op.name
        (List.length xs) (median xs) (best xs))
    ops;
  let throughput name = { m_name = name; value = best (get tbl name); unit_ = "MB/s" } in
  let alloc name = { m_name = name; value = median (get tbl name); unit_ = "words/B" } in
  [ throughput "infer_mb_s"; throughput "validate_mb_s"; throughput "check_mb_s";
    alloc "infer_alloc_wpb"; alloc "validate_alloc_wpb";
    { m_name = "peak_heap_mb"; value = peak_heap_mb w ~dir ~probes:5; unit_ = "MB" };
    { m_name = "setup_s"; value = median (get tbl "setup_s"); unit_ = "s" } ]

(* --- traced run: the layers, timed from outside ---------------------------- *)

let line_spans text =
  let acc = ref [] and start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        if i > !start then acc := (!start, i) :: !acc;
        start := i + 1
      end)
    text;
  if !start < String.length text then acc := (!start, String.length text) :: !acc;
  Array.of_list (List.rev !acc)

(* A token's kind as typing sees it: true and false are both booleans. *)
let tok_char : Json.Lexer.skim_tok -> char = function
  | S_lbrace -> '{' | S_rbrace -> '}' | S_lbracket -> '[' | S_rbracket -> ']'
  | S_colon -> ':' | S_comma -> ',' | S_true | S_false -> 'b'
  | S_null -> 'n' | S_int -> 'i' | S_float -> 'd' | S_string -> 's' | S_eof -> '$'

(* Skim the tokens of the value a line starts with, feeding each token's
   kind to [on_tok]; false when the line does not lex as one value. *)
let skim_line text (start, stop) on_tok =
  let lx = Json.Lexer.create ~pos:start text in
  let rec go depth =
    let tok = Json.Lexer.skim lx in
    if tok = Json.Lexer.S_eof || Json.Lexer.tok_start lx >= stop then false
    else begin
      on_tok tok;
      let depth =
        match tok with
        | S_lbrace | S_lbracket -> depth + 1
        | S_rbrace | S_rbracket -> depth - 1
        | _ -> depth
      in
      depth <= 0 || go depth
    end
  in
  try go 0 with Json.Lexer.Lex_error _ | Json.Lexer.Limit_error _ -> false

(* distinct token-kind sequences / documents that lex *)
let distinct_shape_frac text lines =
  let seen = Hashtbl.create 1024 and docs = ref 0 in
  let buf = Buffer.create 256 in
  Array.iter
    (fun sp ->
      Buffer.clear buf;
      if skim_line text sp (fun t -> Buffer.add_char buf (tok_char t)) then begin
        incr docs;
        Hashtbl.replace seen (Buffer.contents buf) ()
      end)
    lines;
  float_of_int (Hashtbl.length seen) /. float_of_int (max 1 !docs)

let skim_values text lines =
  let o = Json.Parser.default_options in
  Array.iter
    (fun (start, _) ->
      let lx = Json.Lexer.create ~pos:start text in
      ignore
        (Json.Parser.run lx (fun () ->
             Fastjson.Rawscan.skim_value lx ~dup_keys:o.Json.Parser.dup_keys
               ~max_depth:o.Json.Parser.max_depth ~depth:0 ~spend_node:ignore
               ~check_bytes:ignore)))
    lines

let run_stream ?telemetry (w : W.t) =
  Core.Resilient.ingest_with ?telemetry
    ~parse_doc:(fun ~options ~telemetry src ~pos ->
      Jsonschema.Compile.run_stream ~options ~telemetry w.W.plan src ~pos)
    w.W.text

let infer_tokens_doc () =
  let scratch = Inference.Streaming.scratch () in
  fun ~options ~telemetry src ~pos ->
    Inference.Streaming.infer_tokens ~options ~telemetry ~scratch
      ~equiv:Jtype.Merge.Kind src ~pos

let kernel_delta keys f =
  let count totals k = Option.value ~default:0 (List.assoc_opt k totals) in
  let before = Jtype.Kernel.totals () in
  let r = f () in
  let after = Jtype.Kernel.totals () in
  (r, List.map (fun k -> count after k - count before k) keys)

let frac num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let indexed_failures verdicts =
  List.concat
    (List.mapi (fun i v -> match v with Ok () -> [] | Error es -> [ (i, es) ]) verdicts)

(* How a per-layer metric summarizes its per-round samples: a timing is the
   best of the run's rounds, like the end-to-end throughputs; differences,
   ratios, fractions, counts and allocation are medians. *)
type stat = Fastest | Highest | Median

let per_layer_metrics =
  [ ("lexer.skim_mb_s", "MB/s", Highest);
    ("rawscan.skim_value_s", "s", Fastest);
    ("rawscan.skim_value_alloc_wpb", "words/B", Median);
    ("compile.plan_s", "s", Fastest);
    ("compile.run_stream_s", "s", Fastest);
    ("compile.run_stream_alloc_wpb", "words/B", Median);
    ("compile.skipped_byte_frac", "fraction", Median);
    ("streaming.infer_tokens_s", "s", Fastest);
    ("streaming.infer_tokens_alloc_wpb", "words/B", Median);
    ("streaming.distinct_shape_frac", "fraction", Median);
    ("merge.merge_all_s", "s", Fastest);
    ("counting.merge_all_s", "s", Fastest);
    ("kernel.merge_hit_frac", "fraction", Median);
    ("emit_s", "s", Fastest);
    ("pipeline.infer_overhead_s", "s", Median);
    ("pipeline.validate_overhead_s", "s", Median);
    ("resilient.dead_letters", "count", Median);
    ("resilient.quarantine_s", "s", Fastest);
    ("parallel.pool_overhead_s", "s", Fastest);
    ("parallel.ingest_speedup", "x", Median);
    ("supervisor.overhead_s", "s", Median);
    ("checkpoint.write_s", "s", Median);
    ("checkpoint.journal_bytes", "B", Median);
    ("contain.check_s", "s", Fastest);
    ("contain.subtype_hit_frac", "fraction", Median);
    ("trace.overhead_s", "s", Median) ]

let per_layer (w : W.t) ~seed ~reference ~tally ~seconds ~dir ~trace =
  let text = w.W.text and root = w.W.root in
  (* the quarantine probe's input: the records Chaos corrupted; a workload
     without faults of its own has 1% of its records corrupted for the
     probe alone *)
  let faulted =
    if w.W.corrupting > 0 then w.W.faulted
    else
      let _, _, faulted = W.corrupt ~seed ~rate:0.01 text in
      faulted
  in
  let bytes = float_of_int (String.length text) in
  let lines = line_spans text in
  let tbl = samples () in
  let add = add tbl in
  let ops = job_mix w ~dir in
  let round = ref 0 in
  let deadline = now () +. seconds in
  while !round = 0 || now () < deadline do
    let op = !round in
    incr round;
    let span name f = Trace.span trace ~op name f in
    let timed name f = let r, d = span name f in add name d; (r, d) in
    (* the job mix untraced, then traced; the difference is the tracing
       overhead *)
    let mix_time wrap =
      List.fold_left
        (fun acc (o : op) ->
          match run_op tally ~reference ~wrap o with Some (dt, _) -> acc +. dt | None -> acc)
        0. ops
    in
    let untraced = mix_time (fun _ f -> f ()) in
    let traced, _ =
      span "jobmix" (fun () -> mix_time (fun name f -> fst (span ("pipeline." ^ name) f)))
    in
    add "trace.overhead_s" (traced -. untraced);
    ignore
      (span "layers" (fun () ->
           (* validation, decomposed: cold plan compile, then plan execution *)
           cold ();
           let plan_r, plan_s = timed "compile.plan_s" (fun () -> Jsonschema.Compile.compile root) in
           ignore (Result.get_ok plan_r);
           let (verdicts, dead, report), run_s =
             timed "compile.run_stream_s" (fun () ->
                 let r, _, words = measure (fun () -> run_stream w) in
                 add "compile.run_stream_alloc_wpb" (words /. bytes);
                 r)
           in
           record tally ~what:"validate (decomposed)" ~expected:reference.Expect.r_validate
             (Expect.validate ({ Core.Resilient.docs = []; dead; report }, indexed_failures verdicts));
           cold ();
           let _, pipe_s =
             span "pipeline.validate_jobs1" (fun () -> P.validate_ndjson ~jobs:1 ~root text)
           in
           add "pipeline.validate_overhead_s" (pipe_s -. (plan_s +. run_s));
           (* inference, decomposed: typing, the two merges, emission *)
           cold ();
           let (pairs, _, _), typing_s =
             timed "streaming.infer_tokens_s" (fun () ->
                 let r, _, words =
                   measure (fun () ->
                       Core.Resilient.ingest_with ~parse_doc:(infer_tokens_doc ()) text)
                 in
                 add "streaming.infer_tokens_alloc_wpb" (words /. bytes);
                 r)
           in
           let ts = List.map fst pairs and cs = List.map snd pairs in
           let (t, merge_s), hits =
             kernel_delta [ "kernel.merge.hits"; "kernel.merge.misses" ] (fun () ->
                 timed "merge.merge_all_s" (fun () -> Jtype.Merge.merge_all ~equiv:Jtype.Merge.Kind ts))
           in
           add "kernel.merge_hit_frac"
             (match hits with [ h; m ] -> frac h (h + m) | _ -> assert false);
           let c, counting_s =
             timed "counting.merge_all_s" (fun () -> Jtype.Counting.merge_all ~equiv:Jtype.Merge.Kind cs)
           in
           let _, emit_s =
             timed "emit_s" (fun () ->
                 ( Jtype.Interop.to_schema_json t,
                   Jtype.Typescript.declaration ~name:"Root" t,
                   Jtype.Swift.declaration ~name:"Root" t ))
           in
           record tally ~what:"infer (decomposed)"
             ~expected:(List.filter (fun (k, _) -> k = "type" || k = "counting") reference.Expect.r_infer)
             [ ("type", Expect.json (Jtype.Types.to_json t));
               ("counting", Expect.json (Jtype.Counting.to_json c)) ];
           cold ();
           let _, pipe_s =
             span "pipeline.infer_jobs1" (fun () -> P.infer_ndjson_resilient ~jobs:1 text)
           in
           add "pipeline.infer_overhead_s" (pipe_s -. (typing_s +. merge_s +. counting_s +. emit_s));
           (* containment of the inferred type *)
           let _, sub =
             kernel_delta [ "subtype.hits"; "subtype.queries" ] (fun () ->
                 timed "contain.check_s" (fun () -> Jtype.Contain.check ~root t))
           in
           add "contain.subtype_hit_frac"
             (match sub with [ h; q ] -> frac h q | _ -> assert false);
           (* the scan floors *)
           let _, lex_s =
             span "lexer.skim_mb_s" (fun () -> Array.iter (fun sp -> ignore (skim_line text sp ignore)) lines)
           in
           add "lexer.skim_mb_s" (bytes /. 1e6 /. lex_s);
           ignore
             (timed "rawscan.skim_value_s" (fun () ->
                  let (), _, words = measure (fun () -> skim_values text lines) in
                  add "rawscan.skim_value_alloc_wpb" (words /. bytes)));
           ignore
             (timed "resilient.quarantine_s" (fun () ->
                  Core.Resilient.ingest_with ~parse_doc:(infer_tokens_doc ()) faulted));
           (* the pool: spawn cost, and what two shards buy *)
           for _ = 1 to 10 do
             ignore
               (timed "parallel.pool_overhead_s" (fun () ->
                    Core.Parallel.run ~jobs:2 [ (fun () -> ()); (fun () -> ()) ]))
           done;
           let ingest jobs =
             cold ();
             snd
               (span (Printf.sprintf "parallel.ingest_with_jobs%d" jobs) (fun () ->
                    Core.Parallel.ingest_with ~jobs ~parse_doc:infer_tokens_doc text))
           in
           let i1 = ingest 1 in
           let i2 = ingest 2 in
           add "parallel.ingest_speedup" (i1 /. i2);
           (* supervision and checkpoint writes, at jobs=2 *)
           let sup ?checkpoint name =
             cold ();
             let r, d =
               span name (fun () -> P.infer_ndjson_supervised ~jobs:2 ?checkpoint text)
             in
             ignore (Expect.ok_or_fail r);
             d
           in
           cold ();
           let _, resilient_s =
             span "pipeline.infer_jobs2" (fun () -> P.infer_ndjson_resilient ~jobs:2 text)
           in
           let supervised_s = sup "pipeline.infer_supervised_jobs2" in
           let journal = fresh_journal dir in
           let journaled_s = sup ~checkpoint:journal "pipeline.infer_supervised_journal_jobs2" in
           add "checkpoint.journal_bytes" (float_of_int (file_size journal));
           remove_if_exists journal;
           add "supervisor.overhead_s" (supervised_s -. resilient_s);
           add "checkpoint.write_s" (journaled_s -. supervised_s)))
  done;
  (* exact counts, measured once *)
  let sink = Telemetry.create () in
  ignore (run_stream ~telemetry:sink w);
  let skipped =
    Option.value ~default:0
      (List.assoc_opt "stream.skipped_bytes" (Telemetry.snapshot sink).Telemetry.counters)
  in
  add "compile.skipped_byte_frac" (float_of_int skipped /. bytes);
  add "streaming.distinct_shape_frac" (distinct_shape_frac text lines);
  (* every op's dead letters were checked equal to the reference's *)
  let dead_letters =
    match Json.Parser.parse (List.assoc "dead" reference.Expect.r_infer) with
    | Ok (V.Array ds) -> List.length ds
    | _ -> -1
  in
  add "resilient.dead_letters" (float_of_int dead_letters);
  ( !round,
    List.map
      (fun (name, unit_, stat) ->
        let xs = get tbl name in
        let value =
          match stat with
          | Fastest -> List.fold_left Float.min Float.infinity xs
          | Highest -> best xs
          | Median -> median xs
        in
        { m_name = name; value; unit_ })
      per_layer_metrics )

(* --- main -------------------------------------------------------------------- *)

let print_result ~correct ~tally metrics =
  let fail_frac = frac tally.failed tally.attempted in
  List.iter (fun m -> Printf.printf "  %-34s %16.6f %s\n" m.m_name m.value m.unit_) metrics;
  Printf.printf "  %-34s %16.6f %s\n" "failed_ops_frac" fail_frac "fraction";
  let metrics =
    V.Object
      (List.map
         (fun m -> (m.m_name, V.Object [ ("value", V.Float m.value); ("unit", V.String m.unit_) ]))
         metrics)
  in
  print_endline
    (Json.Printer.to_string
       (V.Object
          [ ("correct", V.Bool correct);
            ("attempted", V.Int tally.attempted);
            ("failed", V.Int tally.failed);
            ("metrics", metrics) ]))

let main ~spec ~seed ~seconds ~traced ~out_dir =
  let dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  let w, setup_s = timed_setup spec ~seed in
  Printf.printf "workload %s seed %d: %.3f MB, %d corrupted records, jobs=%d, trace=%b\n%!"
    spec.W.name seed (mb (String.length w.W.text)) w.W.corrupting spec.W.jobs traced;
  let reference = Expect.reference w in
  let audit = Expect.audit w reference in
  List.iter (fun v -> Printf.eprintf "REFERENCE: %s\n%!" v) audit;
  let self_tests_ok = altered_outputs_counted reference && alloc_counts_all_domains w in
  if not self_tests_ok then prerr_endline "SELF-TEST FAILED";
  let tally = { attempted = 0; failed = 0 } in
  let metrics =
    if not traced then
      end_to_end w ~seed ~setup_s ~reference ~tally ~seconds ~dir
    else begin
      let trace = Trace.create () in
      let rounds, metrics = per_layer w ~seed ~reference ~tally ~seconds ~dir ~trace in
      let path =
        Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" spec.W.name seed)
      in
      Trace.write trace path;
      Printf.printf "trace: %d rounds, spans in %s\n  %-40s %6s %10s %10s\n" rounds path
        "span" "calls" "total_s" "self_s";
      List.iter
        (fun (name, n, tot, self) -> Printf.printf "  %-40s %6d %10.4f %10.4f\n" name n tot self)
        (Trace.self_times trace);
      metrics
    end
  in
  let correct = audit = [] && self_tests_ok && tally.failed = 0 in
  print_result ~correct ~tally metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out_dir = ref ".bench_build/perfbench" and heap_child = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from (default 1)");
      ("--seconds", Arg.Set_int seconds, "S how long the timed loop runs (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--out-dir", Arg.Set_string out_dir, "DIR scratch files and traces");
      ("--heap-child", Arg.Set_string heap_child, "DIR (internal) one job mix for the heap probe") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  match W.find !workload with
  | None ->
      Printf.eprintf "unknown workload %S; expected one of: %s\n" !workload
        (String.concat ", " (List.map (fun s -> s.W.name) W.all));
      exit 2
  | Some spec when !heap_child <> "" -> run_heap_child ~dir:!heap_child spec
  | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "--trace takes 0 or 1";
      exit 2
  | Some spec ->
      main ~spec ~seed:!seed ~seconds:(float_of_int !seconds) ~traced:(!trace = 1)
        ~out_dir:!out_dir
