(* Random generators shared by the inclusion suites (test_subtype.ml and
   test_compat.ml). *)

open Jtype
module V = Json.Value


(* Field names from a tiny pool so random record types overlap — subtyping
   between records with disjoint fields is trivially refuted and tests
   nothing. *)
let gen_type : Types.t QCheck2.Gen.t =
  QCheck2.Gen.(
    let scalar =
      oneofl [ Types.null; Types.bool; Types.int; Types.num; Types.str ]
    in
    let leaf =
      frequency [ (8, scalar); (1, return Types.bot); (1, return Types.any) ]
    in
    let key = string_size ~gen:(char_range 'a' 'd') (return 1) in
    sized @@ fix (fun self n ->
        if n <= 0 then leaf
        else
          frequency
            [ (3, leaf);
              (2, map Types.arr (self (n / 2)));
              (2,
               map
                 (fun fields ->
                   let seen = Hashtbl.create 4 in
                   Types.rec_
                     (List.filter
                        (fun (f : Types.field) ->
                          if Hashtbl.mem seen f.Types.fname then false
                          else begin
                            Hashtbl.add seen f.Types.fname ();
                            true
                          end)
                        fields))
                 (list_size (int_range 0 3)
                    (map2
                       (fun (k, opt) t -> Types.field ~optional:opt k t)
                       (pair key bool) (self (n / 2)))));
              (2, map Types.union (list_size (int_range 2 4) (self (n / 2))));
            ]))

let gen_value = QCheck2.Gen.(
  let scalar =
    oneof
      [ return V.Null;
        map (fun b -> V.Bool b) bool;
        map (fun n -> V.Int n) (int_range (-100) 100);
        map (fun f -> V.Float f) (float_range (-100.) 100.);
        map (fun s -> V.String s) (string_size ~gen:(char_range 'a' 'e') (int_range 0 3));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'd') (return 1) in
  sized @@ fix (fun self n ->
      if n <= 0 then scalar
      else
        frequency
          [ (3, scalar);
            (1, map (fun vs -> V.Array vs) (list_size (int_range 0 3) (self (n / 2))));
            (1,
             map
               (fun fields ->
                 let seen = Hashtbl.create 4 in
                 V.Object
                   (List.filter
                      (fun (k, _) ->
                        if Hashtbl.mem seen k then false
                        else (Hashtbl.add seen k (); true))
                      fields))
               (list_size (int_range 0 3) (pair key (self (n / 2)))));
          ]))

