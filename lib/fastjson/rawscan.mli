(** Raw byte-level scanning over JSON text, without tokenizing.

    These are the "skip without parsing" primitives that give Mison and
    Fad.js their speed: a value that the query does not need is stepped
    over by bracket/quote counting only — no unescaping, no number
    conversion, no tree allocation. *)

val skip_ws : string -> int -> int
(** First offset ≥ the argument that is not JSON whitespace. *)

val skip_string : string -> int -> (int, string) result
(** [skip_string s i] with [s.[i] = '"']: offset one past the closing
    quote, honoring backslash escapes. *)

val skip_value : string -> int -> (int, string) result
(** Offset one past the JSON value starting at the given offset (which must
    not be whitespace). Containers are skipped by depth counting with
    in-string awareness; scalars by delimiter scanning. The value is not
    validated beyond bracket balance. *)

val skim_value :
  Json.Lexer.t ->
  dup_keys:Json.Parser.dup_policy ->
  max_depth:int ->
  depth:int ->
  spend_node:(int -> unit) ->
  check_bytes:(int -> unit) ->
  unit
(** Consume exactly one JSON value from the lexer without building a tree,
    validating everything [Json.Parser] would: grammar, [max_depth] (the
    value itself sits at [depth], matching [parse_value]'s [value depth]),
    per-token node/byte budgets via the caller's hooks (shared with the
    enclosing document walk), string budgets, and duplicate keys under
    [Reject]. Runs on {!Json.Lexer.skim}, so the lexer must have no
    {!Json.Lexer.peek}ed token pending. Each hook is called once per token
    with the token's start offset, right after the token is read — a hook
    that fails builds its position with {!Json.Lexer.tok_pos}. Field names
    are materialized only when [dup_keys = Reject]. Raises the parser's own
    exceptions with byte-identical positions, messages, and kinds — recover
    with [Json.Parser.run]. This is the streaming validator's instrument
    for subtrees its plan provably ignores. *)

val skim_rest :
  Json.Lexer.t ->
  Json.Lexer.skim_tok ->
  dup_keys:Json.Parser.dup_policy ->
  max_depth:int ->
  depth:int ->
  spend_node:(int -> unit) ->
  check_bytes:(int -> unit) ->
  unit
(** {!skim_value} for a value whose first token the caller has already
    read with {!Json.Lexer.skim}, depth-checked and charged to its hooks:
    consumes the rest of the value. A walker that reads a token before
    knowing whether to skip it — the head of an array — uses this. *)

val raw_key_at : string -> colon:int -> (string * int, string) result
(** Scan {e backward} from a colon position to extract the raw (still
    escaped) field name, returning the name and the offset of its opening
    quote. This is how Mison recovers field names from its colon bitmap. *)
