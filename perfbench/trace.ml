(* In-memory spans recorded around the benchmark's own calls into each
   layer; nothing inside the library is instrumented. Written out once, at
   exit. *)

type span = {
  id : int;
  name : string;  (** the per-layer metric the span measures *)
  op : int;  (** the round that caused it: spans of one round share it *)
  parent : int option;
  start : float;
  stop : float;
}

type t = { mutable spans : span list; mutable next : int; mutable open_ : int list }

let create () = { spans = []; next = 0; open_ = [] }

(* Run [f] inside a span; returns its result and duration in seconds. *)
let span t ~op name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> Some p | [] -> None in
  t.open_ <- id :: t.open_;
  let start = Unix.gettimeofday () in
  let close () =
    let stop = Unix.gettimeofday () in
    t.open_ <- List.tl t.open_;
    t.spans <- { id; name; op; parent; start; stop } :: t.spans;
    stop -. start
  in
  match f () with
  | r -> (r, close ())
  | exception e ->
      ignore (close ());
      raise e

(* Per span name: calls, total seconds and self seconds (duration minus
   the part its child spans cover; children run sequentially, so their
   durations do not overlap). *)
let self_times t =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          let prev = Option.value ~default:0. (Hashtbl.find_opt child_time p) in
          Hashtbl.replace child_time p (prev +. (s.stop -. s.start))
      | None -> ())
    t.spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self = d -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
      let n, tot, sf = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, tot +. d, sf +. self))
    t.spans;
  Hashtbl.fold (fun name (n, tot, sf) acc -> (name, n, tot, sf) :: acc) by_name []
  |> List.sort compare

let to_json t =
  let module V = Json.Value in
  V.Array
    (List.rev_map
       (fun s ->
         V.Object
           [ ("id", V.Int s.id);
             ("name", V.String s.name);
             ("op", V.Int s.op);
             ("parent", match s.parent with Some p -> V.Int p | None -> V.Null);
             ("start", V.Float s.start);
             ("end", V.Float s.stop) ])
       t.spans)

let write t path =
  let oc = open_out path in
  output_string oc (Json.Printer.to_string (to_json t));
  output_char oc '\n';
  close_out oc
