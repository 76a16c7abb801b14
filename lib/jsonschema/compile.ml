(* Compiled validation plans.

   [Validate.check] re-interprets the schema per document: every keyword is
   an [option] probe on the node record, every [$ref] is a string resolved
   through a per-document cache, and [validate ~root] even re-parses the
   whole schema document each call. This module lowers a parsed [Schema.t]
   once into a tree of specialized closures — the *plan* — and then runs
   the plan per document:

   - [$ref] targets are resolved exactly once into a memoized target table
     (cycles are detected during lowering via the in-flight stack and
     surfaced as {!cycles}); recursive targets are tied with back-patched
     cells so the plan is an ordinary immutable closure graph.
   - per-keyword checks are specialized: absent keywords cost nothing,
     [type] lowers to a kind-dispatch on precomputed booleans, [enum]
     membership goes through a hashed literal set, [pattern]/
     [patternProperties]/[propertyNames] regexes and [format] checkers are
     bound at build time.
   - per-field dispatch is hashed and built at compile time: a node's
     [properties] and [required] names share one open-addressing name
     table ({!names}), so one probe per instance field answers both
     keywords and an object costs O(fields), not O(fields × properties).
   - instance and schema paths travel down the plan as reversed token
     lists (one cons per step, keyword and property tokens preallocated)
     and become [Json.Pointer.t]s only when an error record is built.
   - trivially-true subschemas (boolean [true], `{}`, annotation-only
     nodes) are pruned to a constant check.

   The contract that keeps the fast path honest: a plan must be
   *byte-identical* to the interpreter — same verdicts, same error records
   in the same order, same telemetry keyword counters. That is why the
   runtime still carries the interpreter's fuel and depth counters (the
   fuel budget is observable through its error message on cyclic schemas,
   and its reset-on-input rule shapes which documents exhaust it), and why
   every error string below reuses the interpreter's exact format strings.
   The differential conformance suite and the QCheck oracle in
   [test/test_jsonschema.ml] enforce the contract.

   Plans are immutable after [compile] returns and hold only immutable
   data, so one plan is safely shared across domains; the fingerprint cache
   below lets sharded pipelines reuse one compilation per schema. *)

type error = Validate.error

(* Everything the plan needs from [Validate.config] at run time. Plans are
   config-independent: the same plan serves any config. *)
type rt = {
  formats : bool;
  max_fuel : int;
  max_depth : int;
  tele : Telemetry.sink;
}

(* A location inside the instance or the schema, innermost token first.
   Extending it is one cons; {!ptr} turns it into a [Json.Pointer.t], and
   only error records ever need that. *)
type path = Json.Pointer.token list

let ptr (p : path) : Json.Pointer.t = List.rev p

(* A compiled check: [cc rt fuel depth schema_at at v] mirrors
   [Validate.check ctx ~fuel ~depth ~schema_at ~at s v]. *)
type cc = rt -> int -> int -> path -> path -> Json.Value.t -> error list

(* A compiled keyword: pushes errors onto a reversed accumulator, exactly
   like the interpreter's [errors] ref, so orderings agree by construction. *)
type kc =
  rt -> error list ref -> int -> int -> path -> path -> Json.Value.t -> unit

let kp (at : path) k : path = Json.Pointer.Key k :: at
let ip (at : path) i : path = Json.Pointer.Index i :: at
let add errors e = errors := e :: !errors
let add_all errors es = errors := List.rev_append es !errors

(* schema-path tokens of the keywords that descend into subschemas *)
let t_ref = Json.Pointer.Key "$ref"
let t_items = Json.Pointer.Key "items"
let t_additional_items = Json.Pointer.Key "additionalItems"
let t_contains = Json.Pointer.Key "contains"
let t_property_names = Json.Pointer.Key "propertyNames"
let t_properties = Json.Pointer.Key "properties"
let t_pattern_properties = Json.Pointer.Key "patternProperties"
let t_additional_properties = Json.Pointer.Key "additionalProperties"
let t_dependencies = Json.Pointer.Key "dependencies"
let t_all_of = Json.Pointer.Key "allOf"
let t_any_of = Json.Pointer.Key "anyOf"
let t_one_of = Json.Pointer.Key "oneOf"
let t_not = Json.Pointer.Key "not"
let t_if = Json.Pointer.Key "if"
let t_then = Json.Pointer.Key "then"
let t_else = Json.Pointer.Key "else"

let err ~at ~schema_at sk message =
  { Validate.instance_at = ptr at; schema_at = ptr (kp schema_at sk); message }

let depth_error rt ~schema_at ~at =
  { Validate.instance_at = ptr at;
    schema_at = ptr schema_at;
    message =
      Printf.sprintf
        "maximum validation depth %d exceeded (deeply nested instance or recursive schema)"
        rt.max_depth }

let budget_msg = "reference expansion budget exhausted (cyclic schema?)"

(* The per-node depth gauge boxes a float; pay for it only on a recording
   sink, so [Telemetry.nop] runs allocate nothing per node for it. *)
let gauge_depth rt depth =
  if Telemetry.is_recording rt.tele then
    Telemetry.gauge_max rt.tele "validate.max_depth" (float_of_int depth)

(* keyword-counter keys, built once per module instead of per evaluation *)
let kw_ref = "validate.kw.$ref"
let kw_type = "validate.kw.type"
let kw_enum = "validate.kw.enum"
let kw_const = "validate.kw.const"
let kw_minimum = "validate.kw.minimum"
let kw_maximum = "validate.kw.maximum"
let kw_exclusive_minimum = "validate.kw.exclusiveMinimum"
let kw_exclusive_maximum = "validate.kw.exclusiveMaximum"
let kw_multiple_of = "validate.kw.multipleOf"
let kw_min_length = "validate.kw.minLength"
let kw_max_length = "validate.kw.maxLength"
let kw_pattern = "validate.kw.pattern"
let kw_format = "validate.kw.format"
let kw_min_items = "validate.kw.minItems"
let kw_max_items = "validate.kw.maxItems"
let kw_unique_items = "validate.kw.uniqueItems"
let kw_items = "validate.kw.items"
let kw_contains = "validate.kw.contains"
let kw_min_properties = "validate.kw.minProperties"
let kw_max_properties = "validate.kw.maxProperties"
let kw_required = "validate.kw.required"
let kw_property_names = "validate.kw.propertyNames"
let kw_properties = "validate.kw.properties"
let kw_pattern_properties = "validate.kw.patternProperties"
let kw_additional_properties = "validate.kw.additionalProperties"
let kw_dependencies = "validate.kw.dependencies"
let kw_all_of = "validate.kw.allOf"
let kw_any_of = "validate.kw.anyOf"
let kw_one_of = "validate.kw.oneOf"
let kw_not = "validate.kw.not"
let kw_if = "validate.kw.if"

(* --- hashed literal sets ----------------------------------------------- *)

(* A hash compatible with [Json.Value.equal]: that equality sorts object
   keys (order-insensitive, multiplicity-sensitive) and compares numbers by
   value across Int/Float, so numbers hash through their float image
   (-0.0 normalized: it equals 0.0) and objects through a commutative
   combination of their fields. Collisions only cost a bucket scan. *)
let hash_num f = Hashtbl.hash (if f = 0.0 then 0.0 else f)

let rec literal_hash (v : Json.Value.t) =
  match v with
  | Json.Value.Null -> 3
  | Json.Value.Bool false -> 5
  | Json.Value.Bool true -> 7
  | Json.Value.Int n -> hash_num (float_of_int n)
  | Json.Value.Float f -> hash_num f
  | Json.Value.String s -> Hashtbl.hash s
  | Json.Value.Array vs ->
      List.fold_left (fun acc x -> (acc * 31) + literal_hash x) 11 vs
  | Json.Value.Object fields ->
      13
      + List.fold_left
          (fun acc (k, x) -> acc + (Hashtbl.hash k lxor literal_hash x))
          0 fields

let literal_set vs =
  let tbl = Hashtbl.create (2 * List.length vs) in
  List.iter
    (fun v ->
      let h = literal_hash v in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt tbl h) in
      if not (List.exists (Json.Value.equal v) bucket) then
        Hashtbl.replace tbl h (v :: bucket))
    vs;
  fun v ->
    match Hashtbl.find_opt tbl (literal_hash v) with
    | None -> false
    | Some bucket -> List.exists (Json.Value.equal v) bucket

(* --- name tables ---------------------------------------------------------- *)

(* Field-name tables, built once at compile time: distinct names numbered
   densely in first-occurrence order and found by open addressing over the
   name's bytes (FNV-1a). A probe neither allocates nor raises — an absent
   name answers -1 — and the streaming walker probes straight from a key's
   source span without materializing it. *)
type names = {
  keys : string array;  (* index -> name *)
  slots : int array;    (* power-of-two open-addressing table; -1 = empty *)
}

let fnv s i stop =
  let h = ref 0x811c9dc5 in
  for k = i to stop - 1 do
    h := (!h lxor Char.code (String.unsafe_get s k)) * 0x01000193 land max_int
  done;
  !h

let rec span_eq src i s k n =
  k >= n
  || String.unsafe_get s k = String.unsafe_get src (i + k)
     && span_eq src i s (k + 1) n

let rec probe_span t src i stop j =
  let idx = Array.unsafe_get t.slots j in
  if idx < 0 then -1
  else
    let k = Array.unsafe_get t.keys idx in
    let n = stop - i in
    if String.length k = n && span_eq src i k 0 n then idx
    else probe_span t src i stop ((j + 1) land (Array.length t.slots - 1))

let find_span t src i stop =
  probe_span t src i stop (fnv src i stop land (Array.length t.slots - 1))

let find t s = find_span t s 0 (String.length s)

(* first occurrence of each key wins, in order — linear *)
let first_wins key xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    xs

let names_of_list ks =
  let keys = Array.of_list (first_wins Fun.id ks) in
  let size = ref 8 in
  while !size < 2 * Array.length keys do size := 2 * !size done;
  let slots = Array.make !size (-1) in
  let mask = !size - 1 in
  Array.iteri
    (fun idx k ->
      let rec place j =
        if slots.(j) < 0 then slots.(j) <- idx else place ((j + 1) land mask)
      in
      place (fnv k 0 (String.length k) land mask))
    keys;
  { keys; slots }

(* --- plan lowering ------------------------------------------------------ *)

type stats = {
  mutable nodes : int;        (* subschemas lowered (incl. ref targets) *)
  mutable pruned : int;       (* trivially-true subschemas shortcut *)
  mutable ref_targets : int;  (* distinct $ref targets resolved *)
  mutable cycles : int;       (* back-edges in the $ref graph *)
}

type builder = {
  root : Json.Value.t;                      (* the schema document *)
  targets : (string, cc ref) Hashtbl.t;     (* $ref target -> compiled cell *)
  mutable in_flight : string list;          (* targets currently lowering *)
  st : stats;
}

(* only reachable before the owning [resolve_target] back-patches the cell,
   i.e. never at run time *)
let unlinked_cc : cc = fun _ _ _ _ _ _ -> assert false

(* compiled [dependencies] entry *)
type cdep =
  | Cdep_required of string list
  | Cdep_schema of cc * Json.Pointer.token  (* schema, its trigger's token *)

let rec compile_schema b (s : Schema.t) : cc =
  b.st.nodes <- b.st.nodes + 1;
  match s with
  | Schema.Bool_schema true ->
      b.st.pruned <- b.st.pruned + 1;
      fun rt _fuel depth schema_at at _v ->
        if depth > rt.max_depth then [ depth_error rt ~schema_at ~at ] else []
  | Schema.Bool_schema false ->
      fun rt _fuel depth schema_at at _v ->
        if depth > rt.max_depth then [ depth_error rt ~schema_at ~at ]
        else
          [ { Validate.instance_at = ptr at;
              schema_at = ptr schema_at;
              message = "schema is false" } ]
  | Schema.Schema n -> (
      match kchecks b n with
      | [||] ->
          (* annotation-only node: no keyword ever fires, but the node still
             reports its depth to the gauge and guards the depth bound,
             exactly like the interpreter entering [check_node] *)
          b.st.pruned <- b.st.pruned + 1;
          fun rt _fuel depth schema_at at _v ->
            if depth > rt.max_depth then [ depth_error rt ~schema_at ~at ]
            else begin
              gauge_depth rt depth;
              []
            end
      | ks ->
          fun rt fuel depth schema_at at v ->
            if depth > rt.max_depth then [ depth_error rt ~schema_at ~at ]
            else begin
              gauge_depth rt depth;
              let errors = ref [] in
              for i = 0 to Array.length ks - 1 do
                (Array.unsafe_get ks i) rt errors fuel depth schema_at at v
              done;
              List.rev !errors
            end)

(* Resolve a [$ref] target once, memoized; recursion ties the knot through
   the cell. Returns the interpreter's exact [Invalid_ref] message when the
   target is unusable, so the error closure reproduces it per document. *)
and resolve_target b target : (cc ref, string) result =
  match Hashtbl.find_opt b.targets target with
  | Some cell ->
      if List.mem target b.in_flight then b.st.cycles <- b.st.cycles + 1;
      Ok cell
  | None -> (
      let ptr_str =
        if String.equal target "#" then Ok ""
        else if String.length target > 0 && target.[0] = '#' then
          Ok (String.sub target 1 (String.length target - 1))
        else Error (Printf.sprintf "unsupported (non-local) $ref %S" target)
      in
      match ptr_str with
      | Error m -> Error m
      | Ok ps -> (
          match Json.Pointer.parse ps with
          | Error msg -> Error msg
          | Ok ptr -> (
              match Json.Pointer.get ptr b.root with
              | None -> Error (Printf.sprintf "$ref target %S not found" target)
              | Some sub_json -> (
                  match Parse.of_json sub_json with
                  | Error e -> Error (Parse.string_of_error e)
                  | Ok s ->
                      b.st.ref_targets <- b.st.ref_targets + 1;
                      let cell = ref unlinked_cc in
                      Hashtbl.add b.targets target cell;
                      b.in_flight <- target :: b.in_flight;
                      let cc = compile_schema b s in
                      b.in_flight <- List.tl b.in_flight;
                      cell := cc;
                      Ok cell))))

(* One [kc] per keyword group present on the node, in the interpreter's
   evaluation order. An absent keyword contributes nothing to the array. *)
and kchecks b (n : Schema.node) : kc array =
  let ks = ref [] in
  let addk k = ks := k :: !ks in
  (* $ref *)
  (match n.Schema.ref_ with
   | None -> ()
   | Some target -> (
       match resolve_target b target with
       | Ok cell ->
           addk (fun rt errors fuel depth schema_at at v ->
               Telemetry.count rt.tele kw_ref 1;
               if fuel <= 0 then
                 add errors (err ~at ~schema_at "$ref" budget_msg)
               else
                 add_all errors
                   (!cell rt (fuel - 1) (depth + 1) (t_ref :: schema_at) at v))
       | Error msg ->
           addk (fun rt errors fuel _depth schema_at at _v ->
               Telemetry.count rt.tele kw_ref 1;
               if fuel <= 0 then
                 add errors (err ~at ~schema_at "$ref" budget_msg)
               else add errors (err ~at ~schema_at "$ref" msg))));
  (* type: kind dispatch on precomputed booleans *)
  (match n.Schema.types with
   | None -> ()
   | Some ts ->
       let null_ok = List.mem `Null ts and bool_ok = List.mem `Boolean ts
       and int_ok = List.mem `Integer ts and num_ok = List.mem `Number ts
       and str_ok = List.mem `String ts and arr_ok = List.mem `Array ts
       and obj_ok = List.mem `Object ts in
       let expected =
         String.concat " or " (List.map Schema.type_name_to_string ts)
       in
       addk (fun rt errors _fuel _depth schema_at at v ->
           Telemetry.count rt.tele kw_type 1;
           let ok =
             match v with
             | Json.Value.Null -> null_ok
             | Json.Value.Bool _ -> bool_ok
             | Json.Value.Int _ -> int_ok || num_ok
             | Json.Value.Float f -> num_ok || (int_ok && Float.is_integer f)
             | Json.Value.String _ -> str_ok
             | Json.Value.Array _ -> arr_ok
             | Json.Value.Object _ -> obj_ok
           in
           if not ok then
             add errors
               (err ~at ~schema_at "type"
                  (Printf.sprintf "expected %s, got %s" expected
                     (Json.Value.kind_name (Json.Value.kind v))))));
  (* enum / const *)
  (match n.Schema.enum with
   | None -> ()
   | Some vs ->
       let mem =
         (* the hashed set pays off past a handful of literals; tiny enums
            scan, exactly like the interpreter *)
         if List.length vs >= 4 then literal_set vs
         else fun v -> List.exists (Json.Value.equal v) vs
       in
       addk (fun rt errors _fuel _depth schema_at at v ->
           Telemetry.count rt.tele kw_enum 1;
           if not (mem v) then
             add errors
               (err ~at ~schema_at "enum"
                  "value is not one of the enumerated values")));
  (match n.Schema.const with
   | None -> ()
   | Some c ->
       let msg = "expected " ^ Json.Printer.to_string c in
       addk (fun rt errors _fuel _depth schema_at at v ->
           Telemetry.count rt.tele kw_const 1;
           if not (Json.Value.equal v c) then
             add errors (err ~at ~schema_at "const" msg)));
  (* numeric: bounds folded into one closure guarded by a single
     [number_of] probe *)
  (let nchecks = ref [] in
   let addn c = nchecks := c :: !nchecks in
   let bound keyword counter test msg = function
     | None -> ()
     | Some limit ->
         addn (fun rt errors schema_at at f _v ->
             Telemetry.count rt.tele counter 1;
             if not (test f limit) then
               add errors (err ~at ~schema_at keyword (Printf.sprintf msg limit f)))
   in
   bound "minimum" kw_minimum (fun f l -> f >= l) "expected >= %g, got %g"
     n.Schema.minimum;
   bound "maximum" kw_maximum (fun f l -> f <= l) "expected <= %g, got %g"
     n.Schema.maximum;
   bound "exclusiveMinimum" kw_exclusive_minimum (fun f l -> f > l)
     "expected > %g, got %g" n.Schema.exclusive_minimum;
   bound "exclusiveMaximum" kw_exclusive_maximum (fun f l -> f < l)
     "expected < %g, got %g" n.Schema.exclusive_maximum;
   (match n.Schema.multiple_of with
    | None -> ()
    | Some m ->
        addn (fun rt errors schema_at at f v ->
            Telemetry.count rt.tele kw_multiple_of 1;
            if not (Validate.multiple_of_value_ok v m) then
              add errors
                (err ~at ~schema_at "multipleOf"
                   (Printf.sprintf "%g is not a multiple of %g" f m))));
   match List.rev !nchecks with
   | [] -> ()
   | ncs ->
       let ncs = Array.of_list ncs in
       addk (fun rt errors _fuel _depth schema_at at v ->
           match Validate.number_of v with
           | None -> ()
           | Some f ->
               for i = 0 to Array.length ncs - 1 do
                 ncs.(i) rt errors schema_at at f v
               done));
  (* string: length bounds share one UTF-8 count, regex and format checker
     bound at build time *)
  (let schecks = ref [] in
   let adds c = schecks := c :: !schecks in
   (match n.Schema.min_length with
    | None -> ()
    | Some m ->
        adds (fun rt errors schema_at at _s len ->
            Telemetry.count rt.tele kw_min_length 1;
            if len < m then
              add errors
                (err ~at ~schema_at "minLength"
                   (Printf.sprintf "length %d < %d" len m))));
   (match n.Schema.max_length with
    | None -> ()
    | Some m ->
        adds (fun rt errors schema_at at _s len ->
            Telemetry.count rt.tele kw_max_length 1;
            if len > m then
              add errors
                (err ~at ~schema_at "maxLength"
                   (Printf.sprintf "length %d > %d" len m))));
   (match n.Schema.pattern with
    | None -> ()
    | Some (src, re) ->
        adds (fun rt errors schema_at at s _len ->
            Telemetry.count rt.tele kw_pattern 1;
            if not (Re.execp re s) then
              add errors
                (err ~at ~schema_at "pattern"
                   (Printf.sprintf "%S does not match /%s/" s src))));
   (match n.Schema.format with
    | None -> ()
    | Some name ->
        let checker = Validate.format_checker name in
        adds (fun rt errors schema_at at s _len ->
            if rt.formats then begin
              Telemetry.count rt.tele kw_format 1;
              match checker with
              | Some f when not (f s) ->
                  add errors
                    (err ~at ~schema_at "format"
                       (Printf.sprintf "%S is not a valid %s" s name))
              | Some _ | None -> ()
            end));
   match List.rev !schecks with
   | [] -> ()
   | scs ->
       let scs = Array.of_list scs in
       let need_len =
         n.Schema.min_length <> None || n.Schema.max_length <> None
       in
       addk (fun rt errors _fuel _depth schema_at at v ->
           match v with
           | Json.Value.String s ->
               let len = if need_len then Validate.utf8_length s else 0 in
               for i = 0 to Array.length scs - 1 do
                 scs.(i) rt errors schema_at at s len
               done
           | _ -> ()));
  (* array *)
  (let min_i = n.Schema.min_items and max_i = n.Schema.max_items in
   let unique = n.Schema.unique_items in
   let items_cc =
     match n.Schema.items with
     | None -> None
     | Some (Schema.Items_one s) -> Some (`One (compile_schema b s))
     | Some (Schema.Items_many ss) ->
         Some
           (`Many
              ( Array.of_list (List.map (compile_schema b) ss),
                Option.map (compile_schema b) n.Schema.additional_items ))
   in
   let contains_cc = Option.map (compile_schema b) n.Schema.contains in
   let min_c = n.Schema.min_contains and max_c = n.Schema.max_contains in
   if min_i <> None || max_i <> None || unique || items_cc <> None
      || contains_cc <> None
   then
     addk (fun rt errors _fuel depth schema_at at v ->
         match v with
         | Json.Value.Array elems ->
             (if min_i <> None || max_i <> None then begin
                let len = List.length elems in
                (match min_i with
                 | None -> ()
                 | Some m ->
                     Telemetry.count rt.tele kw_min_items 1;
                     if len < m then
                       add errors
                         (err ~at ~schema_at "minItems"
                            (Printf.sprintf "%d items < %d" len m)));
                match max_i with
                | None -> ()
                | Some m ->
                    Telemetry.count rt.tele kw_max_items 1;
                    if len > m then
                      add errors
                        (err ~at ~schema_at "maxItems"
                           (Printf.sprintf "%d items > %d" len m))
              end);
             if unique then begin
               Telemetry.count rt.tele kw_unique_items 1;
               let sorted = List.sort Json.Value.compare elems in
               let rec dup = function
                 | a :: (b :: _ as rest) ->
                     Json.Value.equal a b || dup rest
                 | _ -> false
               in
               if dup sorted then
                 add errors
                   (err ~at ~schema_at "uniqueItems"
                      "array elements are not unique")
             end;
             (match items_cc with
              | None -> ()
              | Some (`One cc) ->
                  Telemetry.count rt.tele kw_items 1;
                  let sat = t_items :: schema_at in
                  List.iteri
                    (fun i x ->
                      add_all errors
                        (cc rt rt.max_fuel (depth + 1) sat (ip at i) x))
                    elems
              | Some (`Many (ccs, add_cc)) ->
                  Telemetry.count rt.tele kw_items 1;
                  let isat = t_items :: schema_at in
                  let nss = Array.length ccs in
                  let rec go i xs =
                    match xs with
                    | [] -> ()
                    | x :: xs' when i < nss ->
                        add_all errors
                          (ccs.(i) rt rt.max_fuel (depth + 1) (ip isat i)
                             (ip at i) x);
                        go (i + 1) xs'
                    | rest -> (
                        (* beyond the tuple prefix: additionalItems applies *)
                        match add_cc with
                        | None -> ()
                        | Some cc ->
                            let asat = t_additional_items :: schema_at in
                            List.iteri
                              (fun j x ->
                                add_all errors
                                  (cc rt rt.max_fuel (depth + 1) asat
                                     (ip at (i + j)) x))
                              rest)
                  in
                  go 0 elems);
             (match contains_cc with
              | None -> ()
              | Some cc ->
                  Telemetry.count rt.tele kw_contains 1;
                  let csat = t_contains :: schema_at in
                  let hits =
                    List.length
                      (List.filter
                         (fun x ->
                           cc rt rt.max_fuel (depth + 1) csat at x = [])
                         elems)
                  in
                  let lo = Option.value ~default:1 min_c in
                  (if hits < lo then
                     add errors
                       (err ~at ~schema_at "contains"
                          (Printf.sprintf
                             "%d matching elements, need at least %d" hits lo)));
                  match max_c with
                  | Some hi when hits > hi ->
                      add errors
                        (err ~at ~schema_at "maxContains"
                           (Printf.sprintf
                              "%d matching elements, allowed at most %d" hits
                              hi))
                  | _ -> ())
         | _ -> ()));
  (* object: [properties] and [required] share one name table (required
     names first, so a required name's index doubles as its slot in the
     per-object seen mask); a single pass over the fields probes it once per
     field. The pass evaluates [properties]/[patternProperties]/
     [additionalProperties] ahead of [required] and [propertyNames], so
     their errors are held back and appended after those keywords' errors —
     the interpreter's order. *)
  (let min_p = n.Schema.min_properties and max_p = n.Schema.max_properties in
   let required = n.Schema.required in
   let prop_names_cc = Option.map (compile_schema b) n.Schema.property_names in
   (* first binding wins, like the interpreter's [assoc_opt]; later
      duplicates are never compiled *)
   let props = first_wins fst n.Schema.properties in
   let nreq = List.length (first_wins Fun.id required) in
   let names = names_of_list (required @ List.map fst props) in
   let req = Array.of_list (List.map (fun r -> (find names r, r)) required) in
   let fprop = Array.make (Array.length names.keys) None in
   List.iter
     (fun (k, s) ->
       fprop.(find names k) <- Some (compile_schema b s, Json.Pointer.Key k))
     props;
   let pat_props =
     Array.of_list
       (List.map
          (fun (src, re, s) -> (Json.Pointer.Key src, re, compile_schema b s))
          n.Schema.pattern_properties)
   in
   let add_props = Option.map (compile_schema b) n.Schema.additional_properties in
   let deps =
     List.map
       (fun (trigger, dep) ->
         match dep with
         | Schema.Dep_required needed -> (trigger, Cdep_required needed)
         | Schema.Dep_schema s ->
             ( trigger,
               Cdep_schema (compile_schema b s, Json.Pointer.Key trigger) ))
       n.Schema.dependencies
   in
   let per_field = props <> [] || Array.length pat_props > 0 || add_props <> None in
   if min_p <> None || max_p <> None || required <> [] || prop_names_cc <> None
      || per_field || deps <> []
   then
     addk (fun rt errors _fuel depth schema_at at v ->
         match v with
         | Json.Value.Object fields ->
             (if min_p <> None || max_p <> None then begin
                let nfields = List.length fields in
                (match min_p with
                 | None -> ()
                 | Some m ->
                     Telemetry.count rt.tele kw_min_properties 1;
                     if nfields < m then
                       add errors
                         (err ~at ~schema_at "minProperties"
                            (Printf.sprintf "%d properties < %d" nfields m)));
                match max_p with
                | None -> ()
                | Some m ->
                    Telemetry.count rt.tele kw_max_properties 1;
                    if nfields > m then
                      add errors
                        (err ~at ~schema_at "maxProperties"
                           (Printf.sprintf "%d properties > %d" nfields m))
              end);
             let seen = if nreq > 0 then Bytes.make nreq '\000' else Bytes.empty in
             let field_errors = ref [] in
             if nreq > 0 || per_field then begin
               let psat = t_properties :: schema_at in
               List.iter
                 (fun (k, x) ->
                   let i = find names k in
                   if i >= 0 && i < nreq then Bytes.unsafe_set seen i '\001';
                   if per_field then begin
                     let matched = ref false in
                     (if i >= 0 then
                        match Array.unsafe_get fprop i with
                        | None -> ()
                        | Some (cc, tok) ->
                            matched := true;
                            Telemetry.count rt.tele kw_properties 1;
                            add_all field_errors
                              (cc rt rt.max_fuel (depth + 1) (tok :: psat)
                                 (tok :: at) x));
                     for j = 0 to Array.length pat_props - 1 do
                       let src, re, cc = pat_props.(j) in
                       if Re.execp re k then begin
                         matched := true;
                         Telemetry.count rt.tele kw_pattern_properties 1;
                         add_all field_errors
                           (cc rt rt.max_fuel (depth + 1)
                              (src :: t_pattern_properties :: schema_at)
                              (kp at k) x)
                       end
                     done;
                     if not !matched then
                       match add_props with
                       | None -> ()
                       | Some cc ->
                           Telemetry.count rt.tele kw_additional_properties 1;
                           add_all field_errors
                             (cc rt rt.max_fuel (depth + 1)
                                (t_additional_properties :: schema_at)
                                (kp at k) x)
                   end)
                 fields
             end;
             if required <> [] then begin
               Telemetry.count rt.tele kw_required 1;
               for j = 0 to Array.length req - 1 do
                 let i, r = req.(j) in
                 if Bytes.unsafe_get seen i = '\000' then
                   add errors
                     (err ~at ~schema_at "required"
                        (Printf.sprintf "missing required property %S" r))
               done
             end;
             (match prop_names_cc with
              | None -> ()
              | Some cc ->
                  Telemetry.count rt.tele kw_property_names 1;
                  let psat = t_property_names :: schema_at in
                  List.iter
                    (fun (k, _) ->
                      add_all errors
                        (cc rt rt.max_fuel (depth + 1) psat (kp at k)
                           (Json.Value.String k)))
                    fields);
             if !field_errors <> [] then errors := !field_errors @ !errors;
             List.iter
               (fun (trigger, dep) ->
                 if List.mem_assoc trigger fields then begin
                   Telemetry.count rt.tele kw_dependencies 1;
                   match dep with
                   | Cdep_required needed ->
                       List.iter
                         (fun k ->
                           if not (List.mem_assoc k fields) then
                             add errors
                               (err ~at ~schema_at "dependencies"
                                  (Printf.sprintf
                                     "property %S requires property %S" trigger
                                     k)))
                         needed
                   | Cdep_schema (cc, tok) ->
                       add_all errors
                         (cc rt rt.max_fuel (depth + 1)
                            (tok :: t_dependencies :: schema_at) at v)
                 end)
               deps
         | _ -> ()));
  (* combinators: fuel passes through unchanged (no instance input consumed) *)
  (match n.Schema.all_of with
   | [] -> ()
   | ss ->
       let ccs = Array.of_list (List.map (compile_schema b) ss) in
       addk (fun rt errors fuel depth schema_at at v ->
           Telemetry.count rt.tele kw_all_of 1;
           let asat = t_all_of :: schema_at in
           Array.iteri
             (fun i cc ->
               add_all errors (cc rt fuel (depth + 1) (ip asat i) at v))
             ccs));
  (match n.Schema.any_of with
   | [] -> ()
   | ss ->
       let ccs = Array.of_list (List.map (compile_schema b) ss) in
       addk (fun rt errors fuel depth schema_at at v ->
           Telemetry.count rt.tele kw_any_of 1;
           let sat = t_any_of :: schema_at in
           if not (Array.exists (fun cc -> cc rt fuel (depth + 1) sat at v = []) ccs)
           then
             add errors
               { Validate.instance_at = ptr at;
                 schema_at = ptr sat;
                 message = "no alternative matches" }));
  (match n.Schema.one_of with
   | [] -> ()
   | ss ->
       let ccs = Array.of_list (List.map (compile_schema b) ss) in
       addk (fun rt errors fuel depth schema_at at v ->
           Telemetry.count rt.tele kw_one_of 1;
           let sat = t_one_of :: schema_at in
           let hits =
             Array.fold_left
               (fun acc cc ->
                 if cc rt fuel (depth + 1) sat at v = [] then acc + 1 else acc)
               0 ccs
           in
           if hits <> 1 then
             add errors
               { Validate.instance_at = ptr at;
                 schema_at = ptr sat;
                 message =
                   Printf.sprintf "%d alternatives match (need exactly 1)" hits }));
  (match n.Schema.not_ with
   | None -> ()
   | Some s ->
       let cc = compile_schema b s in
       addk (fun rt errors fuel depth schema_at at v ->
           Telemetry.count rt.tele kw_not 1;
           if cc rt fuel (depth + 1) (t_not :: schema_at) at v = [] then
             add errors
               (err ~at ~schema_at "not" "value matches the negated schema")));
  (match n.Schema.if_ with
   | None -> ()
   | Some cond ->
       let cond_cc = compile_schema b cond in
       let then_cc = Option.map (compile_schema b) n.Schema.then_ in
       let else_cc = Option.map (compile_schema b) n.Schema.else_ in
       addk (fun rt errors fuel depth schema_at at v ->
           Telemetry.count rt.tele kw_if 1;
           let branch, which =
             if cond_cc rt fuel (depth + 1) (t_if :: schema_at) at v = [] then
               (then_cc, t_then)
             else (else_cc, t_else)
           in
           match branch with
           | None -> ()
           | Some cc ->
               add_all errors (cc rt fuel (depth + 1) (which :: schema_at) at v)));
  Array.of_list (List.rev !ks)

(* --- access analysis ----------------------------------------------------- *)

(* What the plan can observe of a value at a given schema position. The
   streaming walker prunes everything the plan provably ignores:

   - [A_skip]: the check outcome is constant in the value (boolean schemas,
     annotation-only nodes, positions no keyword ever visits). The walker
     skims the subtree at token level ({!Fastjson.Rawscan.skim_value}) and
     plants [Null]; any constant check still runs on the placeholder and
     behaves identically.
   - [A_node]: only the selected parts matter. The value's *kind* is always
     preserved (for [type] dispatch), numbers and booleans are materialized
     for real (they are free at token level), but string payloads are
     skimmed to [""] unless a string-content keyword is present, and
     object-field / array-element subtrees follow their own access.
   - [A_full]: materialize exactly ([enum]/[const] compare whole values,
     [uniqueItems] compares elements, [$ref] is conservatively opaque).

   Soundness invariant: a position's access over-approximates the demands
   of every checker closure that can receive that position's value. *)

type access = A_full | A_skip | A_node of node_access

and node_access = {
  a_str : bool;              (* string contents inspected here *)
  a_names : names;           (* [properties] names, first-wins *)
  a_props : access array;    (* indexed like [a_names] *)
  a_other : access;          (* fields not named in [a_names] *)
  a_prefix : access array;   (* tuple prefix, from [Items_many] *)
  a_elems : access;          (* elements past the prefix *)
}

let prop_access na k =
  let i = find na.a_names k in
  if i < 0 then na.a_other else na.a_props.(i)

let elem_access na i =
  if i < Array.length na.a_prefix then na.a_prefix.(i) else na.a_elems

(* Linear in the two nodes' sizes: names are merged through one table,
   tuple prefixes by index. *)
let rec access_join a b =
  match (a, b) with
  | A_full, _ | _, A_full -> A_full
  | A_skip, x | x, A_skip -> x
  | A_node x, A_node y ->
      let a_names =
        names_of_list (Array.to_list x.a_names.keys @ Array.to_list y.a_names.keys)
      in
      let a_props =
        Array.map (fun k -> access_join (prop_access x k) (prop_access y k))
          a_names.keys
      in
      let plen = max (Array.length x.a_prefix) (Array.length y.a_prefix) in
      let a_prefix =
        Array.init plen (fun i -> access_join (elem_access x i) (elem_access y i))
      in
      A_node
        { a_str = x.a_str || y.a_str;
          a_names;
          a_props;
          a_other = access_join x.a_other y.a_other;
          a_prefix;
          a_elems = access_join x.a_elems y.a_elems }

let no_names = names_of_list []

let rec access_of (s : Schema.t) : access =
  match s with
  | Schema.Bool_schema _ -> A_skip
  | Schema.Schema n ->
      (* [$ref] targets are opaque here (cycles would need a fixpoint);
         [enum]/[const] compare the whole value. *)
      if n.Schema.ref_ <> None || n.Schema.enum <> None || n.Schema.const <> None
      then A_full
      else begin
        let a_str =
          n.Schema.min_length <> None || n.Schema.max_length <> None
          || n.Schema.pattern <> None || n.Schema.format <> None
        in
        let a_names, a_props, a_other =
          if n.Schema.pattern_properties <> [] then
            (* a pattern may match any key: every field is reachable by an
               arbitrary subschema, so materialize them all *)
            (no_names, [||], A_full)
          else
            let props = first_wins fst n.Schema.properties in
            ( names_of_list (List.map fst props),
              Array.of_list (List.map (fun (_, s) -> access_of s) props),
              match n.Schema.additional_properties with
              | None -> A_skip
              | Some s -> access_of s )
        in
        let contains_a =
          match n.Schema.contains with Some s -> access_of s | None -> A_skip
        in
        let a_prefix, a_elems =
          if n.Schema.unique_items then ([||], A_full)
          else
            match n.Schema.items with
            | None -> ([||], contains_a)
            | Some (Schema.Items_one s) ->
                ([||], access_join (access_of s) contains_a)
            | Some (Schema.Items_many ss) ->
                ( Array.of_list
                    (List.map (fun s -> access_join (access_of s) contains_a) ss),
                  access_join contains_a
                    (match n.Schema.additional_items with
                     | None -> A_skip
                     | Some s -> access_of s) )
        in
        let own =
          A_node { a_str; a_names; a_props; a_other; a_prefix; a_elems }
        in
        (* everything applied to the same value joins at this level *)
        let subs =
          List.map access_of
            (n.Schema.all_of @ n.Schema.any_of @ n.Schema.one_of)
          @ List.filter_map
              (Option.map access_of)
              [ n.Schema.not_; n.Schema.if_; n.Schema.then_; n.Schema.else_ ]
          @ List.filter_map
              (fun (_, dep) ->
                match dep with
                | Schema.Dep_required _ -> None
                | Schema.Dep_schema s -> Some (access_of s))
              n.Schema.dependencies
        in
        List.fold_left access_join own subs
      end

(* --- plans -------------------------------------------------------------- *)

type plan = {
  check : cc;
  access : access;
  nodes : int;
  pruned : int;
  ref_targets : int;
  cycles : int;
}

let nodes p = p.nodes
let pruned p = p.pruned
let ref_targets p = p.ref_targets
let cycles p = p.cycles

let compile ?(telemetry = Telemetry.nop) root =
  let recording = Telemetry.is_recording telemetry in
  let t0 = if recording then Telemetry.now () else 0.0 in
  match Parse.of_json root with
  | Error e ->
      (* the same error list [Validate.validate] returns on a malformed
         schema, so the engines agree even before a plan exists *)
      Error
        [ { Validate.instance_at = [];
            schema_at = e.Parse.at;
            message = e.Parse.message } ]
  | Ok s ->
      let b =
        { root;
          targets = Hashtbl.create 16;
          in_flight = [];
          st = { nodes = 0; pruned = 0; ref_targets = 0; cycles = 0 } }
      in
      let check = compile_schema b s in
      if recording then begin
        Telemetry.observe telemetry "validate.compile_ms"
          ((Telemetry.now () -. t0) *. 1000.0);
        Telemetry.gauge_max telemetry "validate.plan.nodes"
          (float_of_int b.st.nodes)
      end;
      Ok
        { check;
          access = access_of s;
          nodes = b.st.nodes;
          pruned = b.st.pruned;
          ref_targets = b.st.ref_targets;
          cycles = b.st.cycles }

let run ?(config = Validate.default_config) plan v =
  let rt =
    { formats = config.Validate.assert_formats;
      max_fuel = config.Validate.max_ref_expansions;
      max_depth = config.Validate.max_depth;
      tele = config.Validate.telemetry }
  in
  match plan.check rt rt.max_fuel 0 [] [] v with
  | [] -> Ok ()
  | es -> Error es
  | exception Stack_overflow ->
      Error
        [ { Validate.instance_at = [];
            schema_at = [];
            message = "validation overflowed the stack (schema too deep)" } ]

let is_valid ?config plan v = Result.is_ok (run ?config plan v)

(* --- streaming execution ------------------------------------------------- *)

(* Walk one document at token level, materializing only what [plan.access]
   demands and planting placeholders elsewhere, then run the ordinary plan
   on the pruned tree. The walk mirrors [Json.Parser.parse_value] — same
   node/byte spends at the same token offsets, same depth checks (the
   first element of an array is read before its depth check, like the
   parser's peek), same duplicate-key resolution — and runs on
   [Lexer.skim] tokens: no token/position tuple per token, positions built
   only when a budget fails, object keys probed against the node's name
   table straight from their source spans (a known key reuses the
   schema's own string; only unknown keys are copied out). Any failure
   falls back to [Json.Parser.parse_substring], so parse errors stay
   byte-identical; the pruning soundness invariant (see {!access}) makes
   the verdicts, error lists, and [validate.kw.*] counters byte-identical
   too. *)

let empty_string = Json.Value.String ""

(* [A_full] seen as a node: every field and element in full *)
let full_node =
  { a_str = true; a_names = no_names; a_props = [||]; a_other = A_full;
    a_prefix = [||]; a_elems = A_full }

let node_of = function A_node na -> na | A_full | A_skip -> full_node

(* The number token [Lexer.skim] just read, as [Json.Lexer.next] would
   have materialized it: an integer literal short enough never to overflow
   is evaluated in place, anything else goes through [Json.Number.parse]
   on the literal, like the materializing lexer. *)
let number_of_last lx tok =
  let module L = Json.Lexer in
  let src = L.source lx and i = L.tok_start lx and stop = L.offset lx in
  let neg = String.unsafe_get src i = '-' in
  let d0 = if neg then i + 1 else i in
  if tok = L.S_int && stop - d0 <= 18 then begin
    let n = ref 0 in
    for k = d0 to stop - 1 do
      n := (!n * 10) + (Char.code (String.unsafe_get src k) - Char.code '0')
    done;
    Json.Value.Int (if neg then - !n else !n)
  end
  else
    match Json.Number.parse (String.sub src i (stop - i)) with
    | Ok (Json.Number.Int_lit n) -> Json.Value.Int n
    | Ok (Json.Number.Float_lit f) -> Json.Value.Float f
    | Error msg -> raise (L.Lex_error (L.tok_pos lx, msg))

(* Whether two of the keys are equal. Only keys outside a node's name
   table need this scan (known keys are checked through their indices);
   past a handful the caller defers to the parser's hashed resolution. *)
let max_unknown_scan = 16

let rec mem_key k = function
  | [] -> false
  | k' :: rest -> String.equal k k' || mem_key k rest

let rec has_dup = function
  | [] -> false
  | k :: rest -> mem_key k rest || has_dup rest

let walk_pruned ~options ~telemetry access src ~pos =
  let module L = Json.Lexer in
  let module P = Json.Parser in
  let lx = L.create ~pos ?max_string_bytes:options.P.max_string_bytes src in
  let dup_keys = options.P.dup_keys and max_depth = options.P.max_depth in
  let tokens = ref 0 in
  let skipped = ref 0 in
  let walk_doc () =
    let nodes = ref 0 in
    (* budget hooks, charged at a token's start offset right after it is
       read; the failure position is built only when a budget trips *)
    let spend_node _off =
      incr nodes;
      match options.P.max_nodes with
      | Some limit when !nodes > limit ->
          P.fail ~kind:(P.Budget_exceeded P.Nodes_exceeded) (L.tok_pos lx)
            (Printf.sprintf "document exceeds %d nodes" limit)
      | _ -> ()
    in
    let check_bytes off =
      match options.P.max_doc_bytes with
      | Some limit when off - pos > limit ->
          P.fail ~kind:(P.Budget_exceeded P.Bytes_exceeded) (L.tok_pos lx)
            (Printf.sprintf "document exceeds %d bytes" limit)
      | _ -> ()
    in
    let charge () =
      let off = L.tok_start lx in
      spend_node off;
      check_bytes off
    in
    let skim () = incr tokens; L.skim lx in
    let depth_exceeded () =
      P.fail ~kind:(P.Budget_exceeded P.Depth_exceeded) (L.position lx)
        "maximum nesting depth exceeded"
    in
    let unexpected expected tok =
      P.fail (L.tok_pos lx)
        (Printf.sprintf "expected %s, got %s" expected (L.skim_name tok))
    in
    let rec walk a depth =
      match a with
      | A_skip ->
          let before = L.offset lx in
          Fastjson.Rawscan.skim_value lx ~dup_keys ~max_depth ~depth ~spend_node
            ~check_bytes;
          skipped := !skipped + (L.offset lx - before);
          Json.Value.Null
      | A_full | A_node _ ->
          if depth > max_depth then depth_exceeded ();
          let tok = skim () in
          charge ();
          walk_tok a tok depth
    and walk_tok a tok depth =
      match tok with
      | L.S_null -> Json.Value.Null
      | L.S_true -> Json.Value.Bool true
      | L.S_false -> Json.Value.Bool false
      | L.S_int | L.S_float -> number_of_last lx tok
      | L.S_string -> (
          match a with
          | A_node na when not na.a_str -> empty_string
          | A_node _ | A_full | A_skip -> Json.Value.String (L.string_of_last lx))
      | L.S_lbracket -> walk_array (node_of a) depth
      | L.S_lbrace -> walk_object (node_of a) depth
      | L.S_rbrace | L.S_rbracket | L.S_colon | L.S_comma | L.S_eof ->
          unexpected "a value" tok
    and walk_array na depth =
      let tok = L.skim lx in
      match tok with
      | L.S_rbracket ->
          incr tokens;
          Json.Value.Array []
      | _ ->
          if depth + 1 > max_depth then depth_exceeded ();
          charge ();
          let v0 =
            match elem_access na 0 with
            | A_skip ->
                let before = L.offset lx in
                Fastjson.Rawscan.skim_rest lx tok ~dup_keys ~max_depth
                  ~depth:(depth + 1) ~spend_node ~check_bytes;
                skipped := !skipped + (L.offset lx - before);
                Json.Value.Null
            | a0 ->
                incr tokens;
                walk_tok a0 tok (depth + 1)
          in
          let rec elements i acc =
            match skim () with
            | L.S_comma ->
                elements (i + 1) (walk (elem_access na i) (depth + 1) :: acc)
            | L.S_rbracket -> List.rev acc
            | tok -> unexpected "',' or ']'" tok
          in
          Json.Value.Array (elements 1 [ v0 ])
    and walk_object na depth =
      (* duplicate keys: a known key marks its index in [seen], unknown
         ones are collected for a pairwise scan; a duplicate-free object
         needs no policy resolution (every policy is the identity then) *)
      let names = na.a_names in
      let track = dup_keys <> P.Keep_all in
      let seen =
        if track then Bytes.make (Array.length names.keys) '\000' else Bytes.empty
      in
      let dup = ref false and unknown = ref [] and nunknown = ref 0 in
      let rec fields acc tok =
        match tok with
        | L.S_string -> (
            let i, stop, escaped = L.last_string_span lx in
            let idx = if escaped then -1 else find_span names src i stop in
            let key = if idx >= 0 then names.keys.(idx) else L.string_of_last lx in
            let idx = if escaped then find names key else idx in
            (if track then
               if idx >= 0 then begin
                 if Bytes.unsafe_get seen idx <> '\000' then dup := true;
                 Bytes.unsafe_set seen idx '\001'
               end
               else begin
                 unknown := key :: !unknown;
                 incr nunknown
               end);
            match skim () with
            | L.S_colon -> (
                let a = if idx >= 0 then na.a_props.(idx) else na.a_other in
                let acc = (key, walk a (depth + 1)) :: acc in
                match skim () with
                | L.S_comma -> fields acc (skim ())
                | L.S_rbrace ->
                    if (not !dup) && !nunknown <= max_unknown_scan
                       && not (has_dup !unknown)
                    then Json.Value.Object (List.rev acc)
                    else
                      Json.Value.Object
                        (P.apply_dup_policy dup_keys acc (L.tok_pos lx))
                | tok -> unexpected "',' or '}'" tok)
            | tok -> unexpected "':'" tok)
        | _ -> unexpected "a field name" tok
      in
      match skim () with
      | L.S_rbrace -> Json.Value.Object []
      | tok -> fields [] tok
    in
    let v = walk access 0 in
    (match options.P.max_doc_bytes with
     | Some limit when L.offset lx - pos > limit ->
         P.fail ~kind:(P.Budget_exceeded P.Bytes_exceeded) (L.position lx)
           (Printf.sprintf "document exceeds %d bytes" limit)
     | _ -> ());
    (v, !nodes)
  in
  match P.run lx walk_doc with
  | Ok (v, nodes) ->
      let stop = L.offset lx in
      P.emit_doc telemetry options ~bytes:(stop - pos) ~nodes;
      if Telemetry.is_recording telemetry then begin
        Telemetry.count telemetry "stream.tokens" !tokens;
        Telemetry.count telemetry "stream.skipped_bytes" !skipped
      end;
      Ok (v, stop)
  | Error _ as e -> e

let run_stream ?(config = Validate.default_config)
    ?(options = Json.Parser.default_options) ?(telemetry = Telemetry.nop) plan
    src ~pos =
  match walk_pruned ~options ~telemetry plan.access src ~pos with
  | Ok (v, stop) -> Ok (run ~config plan v, stop)
  | Error _ -> (
      (* canonical fallback: the tree parser owns failure reporting (and its
         error telemetry); if it succeeds after all, validate its tree *)
      match Json.Parser.parse_substring ~options ~telemetry src ~pos with
      | Ok (v, stop) -> Ok (run ~config plan v, stop)
      | Error e -> Error e)

(* --- fingerprint-keyed plan cache --------------------------------------- *)

(* FNV-1a 64 over the canonical printed schema document. The printer is
   deterministic, so structurally identical schema values share a plan. *)
let fingerprint root =
  let s = Json.Printer.to_string root in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* Plans are immutable, so concurrent readers are safe once a plan is
   published; the mutex only guards the table itself. Capacity is a blunt
   wholesale-reset bound: schema churn past it means recompiling, never
   unbounded growth. *)
let cache_capacity = 256
let cache : (string, plan) Hashtbl.t = Hashtbl.create 64
let cache_lock = Mutex.create ()
let memoize = Atomic.make true

let set_cache on = Atomic.set memoize on
let cache_enabled () = Atomic.get memoize

let clear_cache () =
  Mutex.lock cache_lock;
  Hashtbl.reset cache;
  Mutex.unlock cache_lock

let cache_size () =
  Mutex.lock cache_lock;
  let n = Hashtbl.length cache in
  Mutex.unlock cache_lock;
  n

let plan_for ?(telemetry = Telemetry.nop) root =
  if not (Atomic.get memoize) then compile ~telemetry root
  else begin
    let key = fingerprint root in
    let hit =
      Mutex.lock cache_lock;
      let r = Hashtbl.find_opt cache key in
      Mutex.unlock cache_lock;
      r
    in
    match hit with
    | Some plan ->
        Telemetry.count telemetry "validate.cache.hits" 1;
        if Telemetry.is_recording telemetry then
          Telemetry.gauge_max telemetry "validate.plan.nodes"
            (float_of_int plan.nodes);
        Ok plan
    | None -> (
        Telemetry.count telemetry "validate.cache.misses" 1;
        match compile ~telemetry root with
        | Error _ as e -> e
        | Ok plan ->
            Mutex.lock cache_lock;
            if Hashtbl.length cache >= cache_capacity then Hashtbl.reset cache;
            if not (Hashtbl.mem cache key) then Hashtbl.add cache key plan;
            Mutex.unlock cache_lock;
            Ok plan)
  end

let validate ?(config = Validate.default_config) ~root v =
  match plan_for ~telemetry:config.Validate.telemetry root with
  | Error es -> Error es
  | Ok plan -> run ~config plan v
