let skip_ws s i =
  let n = String.length s in
  let rec go i =
    if i < n then
      match s.[i] with ' ' | '\t' | '\n' | '\r' -> go (i + 1) | _ -> i
    else i
  in
  go i

let skip_string s i =
  let n = String.length s in
  if i >= n || s.[i] <> '"' then Error "expected a string"
  else
    let rec go i =
      if i >= n then Error "unterminated string"
      else
        match s.[i] with
        | '"' -> Ok (i + 1)
        | '\\' -> if i + 1 < n then go (i + 2) else Error "truncated escape"
        | _ -> go (i + 1)
    in
    go (i + 1)

let skip_literal s i =
  (* numbers, true/false/null: scan to a delimiter *)
  let n = String.length s in
  let rec go i =
    if i >= n then i
    else
      match s.[i] with
      | ',' | '}' | ']' | ' ' | '\t' | '\n' | '\r' -> i
      | _ -> go (i + 1)
  in
  Ok (go i)

let skip_container s i =
  let n = String.length s in
  let rec go i depth in_string =
    if i >= n then Error "unbalanced brackets"
    else if in_string then
      match s.[i] with
      | '\\' -> if i + 1 < n then go (i + 2) depth true else Error "truncated escape"
      | '"' -> go (i + 1) depth false
      | _ -> go (i + 1) depth true
    else
      match s.[i] with
      | '"' -> go (i + 1) depth true
      | '{' | '[' -> go (i + 1) (depth + 1) false
      | '}' | ']' -> if depth = 1 then Ok (i + 1) else go (i + 1) (depth - 1) false
      | _ -> go (i + 1) depth false
  in
  go i 0 false

let skip_value s i =
  let n = String.length s in
  if i >= n then Error "unexpected end of input"
  else
    match s.[i] with
    | '"' -> skip_string s i
    | '{' | '[' -> skip_container s i
    | _ -> skip_literal s i

(* Token-level validating skip: consume exactly one JSON value from the
   lexer, checking everything [Json.Parser.parse_value] would check — depth,
   per-token node/byte budgets (via the caller's hooks, so the accounting is
   shared with the enclosing document walk), string budgets, grammar, and
   duplicate keys under [Reject] — without building any [Value.t]. Failure
   positions, messages, and kinds are identical to the tree parser's, which
   is what lets a streaming engine skip plan-irrelevant subtrees and still
   report byte-identical errors.

   It runs on [Lexer.skim] tokens (immediate constants): the hooks get the
   token's start offset, and a position record is built only when a check
   fails. The walk's state is one record per call; the recursion itself
   allocates nothing, except field names under [Reject]. *)
type skim = {
  lx : Json.Lexer.t;
  dup_keys : Json.Parser.dup_policy;
  reject : bool;
  max_depth : int;
  spend_node : int -> unit;
  check_bytes : int -> unit;
}

module L = Json.Lexer
module P = Json.Parser

let charge c =
  let off = L.tok_start c.lx in
  c.spend_node off;
  c.check_bytes off

let depth_exceeded lx =
  P.fail ~kind:(P.Budget_exceeded P.Depth_exceeded) (L.position lx)
    "maximum nesting depth exceeded"

let unexpected lx expected tok =
  P.fail (L.tok_pos lx)
    (Printf.sprintf "expected %s, got %s" expected (L.skim_name tok))

let rec value c depth =
  if depth > c.max_depth then depth_exceeded c.lx;
  let tok = L.skim c.lx in
  charge c;
  value_tok c tok depth

and value_tok c tok depth =
  match tok with
  | L.S_null | L.S_true | L.S_false | L.S_int | L.S_float | L.S_string -> ()
  | L.S_lbracket -> array c depth
  | L.S_lbrace -> object_ c depth
  | L.S_rbrace | L.S_rbracket | L.S_colon | L.S_comma | L.S_eof ->
      unexpected c.lx "a value" tok

and array c depth =
  (* The tree parser peeks for ']' — lexing the first element's token
     before the depth check, with [position] left past it. Reading the
     token first and depth-checking second reproduces that order. *)
  match L.skim c.lx with
  | L.S_rbracket -> ()
  | tok ->
      if depth + 1 > c.max_depth then depth_exceeded c.lx;
      charge c;
      value_tok c tok (depth + 1);
      elements c depth

and elements c depth =
  match L.skim c.lx with
  | L.S_comma ->
      value c (depth + 1);
      elements c depth
  | L.S_rbracket -> ()
  | tok -> unexpected c.lx "',' or ']'" tok

and object_ c depth =
  match L.skim c.lx with
  | L.S_rbrace -> ()
  | tok -> fields c [] tok depth

(* Field names are materialized only under [Reject], for the duplicate
   check at the closing brace. *)
and fields c keys tok depth =
  match tok with
  | L.S_string -> (
      let keys = if c.reject then (L.string_of_last c.lx, ()) :: keys else keys in
      match L.skim c.lx with
      | L.S_colon -> (
          value c (depth + 1);
          match L.skim c.lx with
          | L.S_comma -> fields c keys (L.skim c.lx) depth
          | L.S_rbrace ->
              if c.reject then
                ignore (P.apply_dup_policy c.dup_keys keys (L.tok_pos c.lx))
          | tok -> unexpected c.lx "',' or '}'" tok)
      | tok -> unexpected c.lx "':'" tok)
  | _ -> unexpected c.lx "a field name" tok

let skimmer lx ~dup_keys ~max_depth ~spend_node ~check_bytes =
  { lx; dup_keys; reject = dup_keys = P.Reject; max_depth; spend_node;
    check_bytes }

let skim_value lx ~dup_keys ~max_depth ~depth ~spend_node ~check_bytes =
  value (skimmer lx ~dup_keys ~max_depth ~spend_node ~check_bytes) depth

let skim_rest lx tok ~dup_keys ~max_depth ~depth ~spend_node ~check_bytes =
  value_tok (skimmer lx ~dup_keys ~max_depth ~spend_node ~check_bytes) tok depth

let raw_key_at s ~colon =
  (* walk back over whitespace, expect closing quote, then scan to the
     opening quote (a quote preceded by an even number of backslashes) *)
  let rec back_ws i =
    if i >= 0 && (s.[i] = ' ' || s.[i] = '\t' || s.[i] = '\n' || s.[i] = '\r') then
      back_ws (i - 1)
    else i
  in
  let close = back_ws (colon - 1) in
  if close < 0 || s.[close] <> '"' then Error "no field name before colon"
  else
    let rec find_open i =
      if i < 0 then Error "unterminated field name"
      else if s.[i] = '"' then begin
        (* count preceding backslashes *)
        let rec bs j acc = if j >= 0 && s.[j] = '\\' then bs (j - 1) (acc + 1) else acc in
        if bs (i - 1) 0 mod 2 = 0 then Ok i else find_open (i - 1)
      end
      else find_open (i - 1)
    in
    match find_open (close - 1) with
    | Ok open_q -> Ok (String.sub s (open_q + 1) (close - open_q - 1), open_q)
    | Error _ as e -> e
