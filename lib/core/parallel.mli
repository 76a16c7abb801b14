(** Sharded parallel execution on OCaml 5 domains.

    The parametric inference of the tutorial is a map/reduce whose reduce —
    {!Jtype.Merge.merge} — is associative and commutative, so sharding a
    collection and fusing per-shard results is semantics-preserving by
    construction. This module supplies the runtime for that shape: a
    hand-rolled fixed pool of domains fed by a bounded work queue, NDJSON
    sharding at newline boundaries, and shard-merge wrappers for the
    resilient ingester, parametric inference, and JSON Schema validation.

    Every entry point takes [?jobs] (default [1]); [jobs <= 1] runs the
    exact sequential code with no pool. For [jobs > 1] the results are
    {e byte-identical} to the sequential path on newline-delimited input:
    documents come back in input order, dead letters carry whole-input line
    numbers and byte offsets (via {!Resilient.ingest}'s rebasing
    parameters) and are re-sorted by global position, and report counters
    are summed. The one caveat is inherent to sharding: a single document
    spanning a shard boundary (pretty-printed multi-line JSON) would be
    split, so parallel ingestion assumes one-document-per-line NDJSON. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

(** {1 Pool primitives} *)

val run : ?telemetry:Telemetry.sink -> jobs:int -> (unit -> 'a) list -> 'a list
(** Execute the thunks on a pool of [min jobs n] domains with a bounded
    ([2 * jobs]) work queue; results are returned in submission order. An
    exception in any thunk is re-raised in the caller after the pool is
    drained and joined. [jobs <= 1] (or a single thunk) runs in the calling
    domain. [telemetry] (default {!Telemetry.nop}) receives the pool's
    health histograms: [pool.queue_wait_s] (enqueue-to-start latency per
    task) and [pool.idle_s] (per-dequeue worker starvation time). *)

type shard = {
  s_off : int;   (** byte offset of the shard in the whole input *)
  s_len : int;
  s_line : int;  (** 1-based line number of the shard's first byte *)
}

val shards : jobs:int -> string -> shard list
(** Split [src] into at most [jobs] spans that cover it exactly, cutting
    only just after ['\n'] so no NDJSON line is divided. Spans are balanced
    by bytes, not by line count. *)

val merge_reports : Resilient.report -> Resilient.report -> Resilient.report
(** Sum two shard reports (counters add, cause breakdowns merge, truncation
    ors). Also used by {!Pipeline}'s shard executor. *)

val dead_order : Resilient.dead_letter -> Resilient.dead_letter -> int
(** Global input order for dead letters (by whole-input byte offset) — the
    order the sequential scan produces them in. *)

(** {1 Sharded pipelines} *)

val ingest_with :
  ?budget:Resilient.budget -> ?options:Json.Parser.options -> ?jobs:int ->
  ?telemetry:Telemetry.sink ->
  parse_doc:
    (unit ->
     options:Json.Parser.options -> telemetry:Telemetry.sink ->
     string -> pos:int -> ('a * int, Json.Parser.error) result) ->
  string -> 'a list * Resilient.dead_letter list * Resilient.report
(** Shard-parallel {!Resilient.ingest_with}: payloads come back in input
    order, dead letters in whole-input coordinates re-sorted by global
    position, reports summed — the exact sequential output, for any [jobs].
    [parse_doc] is a {e factory} invoked once per shard on the worker
    domain that runs it, so an instance may carry mutable per-shard scratch
    (the streaming engine's interning table) without synchronization. A
    [max_docs] budget forces the sequential path, as in {!ingest}. *)

val ingest :
  ?budget:Resilient.budget -> ?options:Json.Parser.options -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> string -> Resilient.ingest
(** Shard-parallel {!Resilient.ingest}: same documents, dead letters and
    report as the sequential scan, in the same order. A [max_docs] budget
    is a global order-dependent cap and forces the sequential path.
    [telemetry] adds, on top of {!Resilient.ingest}'s counters, the
    [parallel.shards] counter and [ingest.shard] / [ingest.merge] spans
    (plus the pool histograms of {!run}). *)

val parse_ndjson_strict :
  ?budget:Resilient.budget -> ?options:Json.Parser.options -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> string -> (Json.Value.t list, string) result
(** Fail-fast wrapper over {!ingest}: the globally-first dead letter (by
    byte offset) aborts with its error — the same error the sequential
    {!Resilient.parse_ndjson_strict} reports. *)

val with_kernel_stats : Telemetry.sink -> (unit -> 'a) -> 'a
(** Run [f] and emit the {!Jtype.Kernel} counter deltas it caused
    ([kernel.nodes], [kernel.intern.hits], [kernel.merge.hits]/[.misses],
    [kernel.fuse.*], [kernel.simplify.*], [kernel.cache.clears]) plus the
    [kernel.cache.entries] gauge into the sink. No-op on {!Telemetry.nop}.
    Call only around joined parallel sections (deltas are summed over all
    domains). *)

val infer_type :
  equiv:Jtype.Merge.equiv -> ?jobs:int -> ?telemetry:Telemetry.sink ->
  Json.Value.t list -> Jtype.Types.t
(** Chunk the collection, infer per chunk on the pool, reduce with
    {!Jtype.Merge.merge_all}. Identical result for any [jobs]. [telemetry]
    records [parallel.merge_fanin], [infer.merge_ops],
    [infer.union_width], the [infer.shard] / [infer.merge] spans, and the
    [kernel.*] cache counters of {!with_kernel_stats}. *)

val infer_counting :
  equiv:Jtype.Merge.equiv -> ?jobs:int -> ?telemetry:Telemetry.sink ->
  Json.Value.t list -> Jtype.Counting.t
(** Counting variant; counts add pointwise under the merge. *)

val validate :
  ?config:Jsonschema.Validate.config -> ?compiled:bool -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> root:Json.Value.t ->
  Json.Value.t list -> (int * Jsonschema.Validate.error list) list
(** Shard-parallel validation of a document batch against one schema:
    failing indices (into the input list) with their errors, in input
    order — the same list the sequential fold produces. [compiled]
    (default [true]) lowers the schema once through
    {!Jsonschema.Compile.plan_for} and shares the immutable plan across
    all worker domains; [false] re-interprets the schema per document.
    Verdicts and error reports are byte-identical either way. [telemetry]
    additionally records [validate.compile_ms], [validate.plan.nodes],
    and [validate.cache.{hits,misses}] on the compiled path. *)
