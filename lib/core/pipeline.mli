(** End-to-end pipelines combining the toolkit's components — the workflows
    a user of the tutorial's systems would actually run. *)

(** {1 Inference pipeline} *)

type inferred = {
  jtype : Jtype.Types.t;            (** the union-aware structural type *)
  counting : Jtype.Counting.t;      (** with cardinalities *)
  json_schema : Json.Value.t;       (** translated to JSON Schema *)
  typescript : string;              (** TypeScript declarations *)
  swift : string;                   (** Swift Codable declarations *)
}

val infer :
  ?equiv:Jtype.Merge.equiv -> ?name:string -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> Json.Value.t list -> inferred
(** One call from collection to every schema artifact (default equivalence
    [Kind], default root declaration name ["Root"]). [jobs > 1] runs the
    inference map/reduce shard-parallel ({!Parallel}); the result is
    identical for any job count. [telemetry] (default {!Telemetry.nop})
    observes without changing any output — see {!Telemetry}. *)

(** {1 NDJSON pipelines}

    Every NDJSON entry point below runs one shard executor: the input is cut
    into newline-aligned shards (one per job; a [max_docs] budget keeps the
    whole input as one shard, since the cap is global and order-dependent),
    each shard runs {!Resilient.ingest_with} with the operation's
    per-document step under {!Supervisor.run}, and the completed shards'
    per-document results are reduced once, in input order. There is one
    implementation per operation; the entry points differ only in policy:

    {v
    policy      budget     attempts  journal   first dead letter
    fail-fast   unbounded  1         no        returned as Error
    quarantine  ?budget    1         no        kept in the ingest
    supervised  ?budget    ?policy   optional  kept in the ingest
    v}

    Fail-fast: {!infer_ndjson}, {!validate_ndjson_strict}. Quarantine:
    {!infer_ndjson_resilient}, {!validate_ndjson}. Supervised:
    {!ingest_ndjson_supervised}, {!infer_ndjson_supervised},
    {!validate_ndjson_supervised}, {!check_ndjson}.

    Fail-fast and quarantine are {!Supervisor.no_retry} with no journal;
    fail-fast additionally uses {!Resilient.unbounded_budget}. Under every
    policy, budgets, dead-letter coordinates and reports are those of one
    sequential scan, for any [jobs]. A shard whose work raises is poisoned,
    never propagated: it becomes one {!Resilient.dead_letter} of kind
    [Shard "crash"] in whole-input coordinates ([report.poisoned] counts
    it), which fail-fast returns as its [Error] like any first dead letter.
    No exception escapes an NDJSON entry point.

    The returned {!Resilient.ingest} carries dead letters and the report;
    its [docs] list is empty for every operation except
    {!ingest_ndjson_supervised}, under both engines — read document counts
    off [report.ok].

    [telemetry] (default {!Telemetry.nop}) receives the ingest and parser
    counters, [supervisor.attempts], and when the input splits into
    several shards the [parallel.shards] counter and [ingest.shard] /
    [ingest.merge] spans;
    inference adds the [infer] span, [infer.merge_ops],
    [infer.union_width] and the {!Parallel.with_kernel_stats} counters. *)

type engine = [ `Tree | `Streaming ]
(** How a document is read; chosen in one place and affecting cost only.
    [`Tree] (the executable spec) parses each document into a
    {!Json.Value.t} and applies the operation to it. [`Streaming] (the
    default) fuses parsing with the operation: inference types the token
    stream directly ({!Inference.Streaming.infer_tokens}) and validation
    walks a compiled plan over it, skimming subtrees the plan provably
    ignores ({!Jsonschema.Compile.run_stream}). Both produce identical
    per-document results and parse errors, and share everything after
    them — dead letters, reduce, journal — so inferred types, verdicts,
    error lists and reports are byte-identical (a differential oracle
    pins this); only the streaming engine's [stream.*] telemetry
    differs. *)

val infer_ndjson :
  ?equiv:Jtype.Merge.equiv -> ?name:string -> ?engine:engine -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> string -> (inferred, string) result
(** Fail-fast inference from raw text: the first bad document (by input
    position) aborts with its whole-input line/column error. An empty input
    infers the empty type. *)

val infer_ndjson_resilient :
  ?equiv:Jtype.Merge.equiv -> ?name:string -> ?budget:Resilient.budget ->
  ?engine:engine -> ?jobs:int -> ?telemetry:Telemetry.sink ->
  string -> inferred option * Resilient.ingest
(** Quarantining inference: corrupted or over-budget documents become dead
    letters (default budget {!Resilient.default_budget}) and inference runs
    on the survivors; [None] when nothing survived. *)

val validate_ndjson :
  ?config:Jsonschema.Validate.config -> ?compiled:bool ->
  ?budget:Resilient.budget -> ?engine:engine ->
  ?jobs:int -> ?telemetry:Telemetry.sink -> root:Json.Value.t -> string ->
  Resilient.ingest * (int * Jsonschema.Validate.error list) list
(** Quarantining validation from raw text: unparseable documents are dead
    letters, surviving documents are validated (indices are into the
    surviving documents in input order). [compiled] and [engine] as in
    {!validate_ndjson_supervised}. *)

val validate_ndjson_strict :
  ?config:Jsonschema.Validate.config -> ?compiled:bool -> ?engine:engine ->
  ?jobs:int -> ?telemetry:Telemetry.sink -> root:Json.Value.t -> string ->
  (int * (int * Jsonschema.Validate.error list) list, string) result
(** Fail-fast validation from raw text: the first unparseable document
    aborts with its whole-input line/column error, otherwise
    [Ok (ndocs, failures)] ([failures = []] means every document
    validated). *)

(** {2 Supervision with checkpoint/resume}

    The supervised entry points take the {!Supervisor.policy} (default
    {!Supervisor.default_policy}: retry with deterministic backoff,
    cooperative per-shard deadlines, graceful degradation), a
    worker-fault plan [inject] keyed by {e global} shard index (see
    {!Chaos.worker_faults}; consistent across retries and resume, never
    consulted for journaled shards), and a [checkpoint] journal. A shard
    that exhausts its attempts is quarantined as one [Shard _] dead letter
    instead of failing the job. [checkpoint] journals each completed
    shard's results so an interrupted run resumes byte-identically
    ({!Checkpoint}); the journal is written and read only when given. Same
    input, policy and fault plan — same output, for any [jobs],
    interrupted or not. Resume matches journal entries by shard
    coordinates, so use the same [jobs] value to actually skip work (a
    different [jobs] is safe but recomputes everything). [Error] only for
    an unusable journal (wrong job, engine or input fingerprint, or an
    undecodable entry); shard failures never error. *)

type supervision = {
  sup_stats : Supervisor.stats;
  sup_resumed : int;  (** shards restored from the checkpoint journal *)
}

val ingest_ndjson_supervised :
  ?budget:Resilient.budget -> ?options:Json.Parser.options ->
  ?policy:Supervisor.policy ->
  ?inject:(shard:int -> attempt:int -> string option) ->
  ?checkpoint:string -> ?resume:bool -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> string ->
  (Resilient.ingest * supervision, string) result
(** Supervised {!Resilient.ingest}: the surviving documents in input order,
    the dead letters and the report. [options] supplies non-budget parser
    knobs (duplicate-key policy, ...). *)

val infer_ndjson_supervised :
  ?equiv:Jtype.Merge.equiv -> ?name:string -> ?budget:Resilient.budget ->
  ?options:Json.Parser.options -> ?policy:Supervisor.policy ->
  ?inject:(shard:int -> attempt:int -> string option) ->
  ?checkpoint:string -> ?resume:bool -> ?engine:engine -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> string ->
  (inferred option * Resilient.ingest * supervision, string) result
(** Supervised {!infer_ndjson_resilient}: a journaled shard stores its
    partial type ({!Jtype.Types.to_json} / {!Jtype.Counting.to_json}), so
    only genuinely-poisoned shards' documents are missing from the final
    type. The journal job tag includes [equiv] — a [Kind] journal cannot
    resume a [Label] run — and the journal header records the engine. *)

val validate_ndjson_supervised :
  ?config:Jsonschema.Validate.config -> ?compiled:bool ->
  ?budget:Resilient.budget ->
  ?options:Json.Parser.options -> ?policy:Supervisor.policy ->
  ?inject:(shard:int -> attempt:int -> string option) ->
  ?checkpoint:string -> ?resume:bool -> ?engine:engine -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> root:Json.Value.t -> string ->
  (Resilient.ingest * (int * Jsonschema.Validate.error list) list * supervision,
   string)
  result
(** Supervised {!validate_ndjson}: failure indices are into the surviving
    documents in input order. [compiled] (default [true]) compiles the
    schema once and shares the plan across shards and retry attempts
    ([false] runs the tree-walk interpreter, the reference the plan is
    tested against); the [`Streaming] engine needs the plan, so with
    [compiled = false], or when the schema fails to compile, the tree
    engine runs regardless of [engine]. The journal job tag fingerprints
    the schema and the journal header records the {e effective} engine, so
    a journal written against one schema or engine refuses to resume a run
    against another ([config] is not fingerprinted — resume with the same
    flags). *)

type checked = {
  chk_inferred : inferred option;
      (** the inferred artifacts, as {!infer_ndjson_supervised} *)
  chk_verdict : Jtype.Contain.verdict option;
      (** containment of the inferred type in the schema; [None] iff no
          document survived ingestion *)
}

val check_ndjson :
  ?equiv:Jtype.Merge.equiv -> ?name:string -> ?budget:Resilient.budget ->
  ?options:Json.Parser.options -> ?policy:Supervisor.policy ->
  ?inject:(shard:int -> attempt:int -> string option) ->
  ?checkpoint:string -> ?resume:bool -> ?engine:engine -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> ?vconfig:Jsonschema.Validate.config ->
  root:Json.Value.t -> string ->
  (checked * Resilient.ingest * supervision, string) result
(** Schema-drift check: infer the type of the corpus (exactly as
    {!infer_ndjson_supervised}, under the same policy, engine and
    checkpoint/resume), then decide whether that type is
    contained in schema [root] with {!Jtype.Contain.check}. The
    containment step's cost depends on the type and the schema, not the
    corpus size. [vconfig] configures witness verification (notably
    [assert_formats]). Kernel counters [subtype.queries]/[subtype.hits]/
    [subtype.unknown] from the containment step are published to
    [telemetry]. *)

(** {1 Validating a collection in memory} *)

val validate_collection :
  ?config:Jsonschema.Validate.config -> ?compiled:bool -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> root:Json.Value.t -> Json.Value.t list ->
  (int, (int * Jsonschema.Validate.error list) list) result
(** Validate every document against a JSON Schema document; [Ok n] = all [n]
    valid, otherwise the failing indices with their errors. [jobs > 1]
    validates document batches shard-parallel. [compiled] (default [true])
    shares one {!Jsonschema.Compile} plan across shards; verdicts and
    error reports are byte-identical either way. *)

(** {1 Dataset profiling} *)

val profile : Json.Value.t list -> Json.Value.t
(** A JSON report: document count, inferred type (paper syntax), mongo-style
    field statistics, skeleton summary, size metrics. The CLI's [stats]
    command prints this. *)

(** {1 Translation pipeline} *)

type translated = {
  avro_schema : Json.Value.t;
  avro_bytes : string;
  columnar_bytes : string;
  json_bytes : int;     (** size of the NDJSON text, for comparison *)
}

val translate :
  ?equiv:Jtype.Merge.equiv -> Json.Value.t list -> (translated, string) result
(** Infer, derive Avro + Spark schemas, encode both ways. *)

val translate_ndjson :
  ?equiv:Jtype.Merge.equiv -> ?budget:Resilient.budget -> string ->
  (translated, string) result option * Resilient.ingest
(** Guarded translation from raw text: quarantining ingestion under the
    budget, then {!translate} the survivors ([None] when nothing
    survived). *)
