(* Protocol plumbing: timestamps, views, collector, history, plus qcheck
   properties on the view lattice operations. *)

let ts ~tag ~writer = Timestamp.make ~tag ~writer

let test_timestamp_order () =
  Alcotest.(check bool) "tag dominates" true
    (Timestamp.compare (ts ~tag:1 ~writer:9) (ts ~tag:2 ~writer:0) < 0);
  Alcotest.(check bool) "writer breaks ties" true
    (Timestamp.compare (ts ~tag:1 ~writer:0) (ts ~tag:1 ~writer:1) < 0);
  Alcotest.(check bool) "equal" true
    (Timestamp.equal (ts ~tag:3 ~writer:2) (ts ~tag:3 ~writer:2))

let view_of l = View.of_list l

let test_view_restrict () =
  let v =
    view_of [ ts ~tag:1 ~writer:0; ts ~tag:2 ~writer:1; ts ~tag:3 ~writer:0 ]
  in
  let r = View.restrict v ~max_tag:2 in
  Alcotest.(check int) "two members" 2 (View.cardinal r);
  Alcotest.(check bool) "keeps tag 2" true (View.mem (ts ~tag:2 ~writer:1) r);
  Alcotest.(check bool) "drops tag 3" false (View.mem (ts ~tag:3 ~writer:0) r);
  Alcotest.(check int) "count_le agrees" 2 (View.count_le v ~max_tag:2)

let test_view_latest_per_writer () =
  let v =
    view_of
      [
        ts ~tag:1 ~writer:0;
        ts ~tag:4 ~writer:0;
        ts ~tag:2 ~writer:2;
        ts ~tag:3 ~writer:0;
      ]
  in
  let latest = View.latest_per_writer v ~n:3 in
  Alcotest.(check (option int)) "writer 0 latest tag" (Some 4)
    (Option.map Timestamp.tag latest.(0));
  Alcotest.(check (option int)) "writer 1 empty" None
    (Option.map Timestamp.tag latest.(1));
  Alcotest.(check (option int)) "writer 2" (Some 2)
    (Option.map Timestamp.tag latest.(2))

let test_view_extract () =
  let v = view_of [ ts ~tag:1 ~writer:0; ts ~tag:2 ~writer:0 ] in
  let snap =
    View.extract v ~n:2 ~value_of:(fun t -> Timestamp.tag t * 100)
  in
  Alcotest.(check (option int)) "segment 0" (Some 200) snap.(0);
  Alcotest.(check (option int)) "segment 1" None snap.(1)

let test_view_comparable () =
  let a = view_of [ ts ~tag:1 ~writer:0 ] in
  let b = view_of [ ts ~tag:1 ~writer:0; ts ~tag:1 ~writer:1 ] in
  let c = view_of [ ts ~tag:1 ~writer:2 ] in
  Alcotest.(check bool) "subset comparable" true (View.comparable a b);
  Alcotest.(check bool) "symmetric" true (View.comparable b a);
  Alcotest.(check bool) "disjoint incomparable" false (View.comparable b c)

(* qcheck generators *)

let timestamp_gen =
  QCheck.Gen.(
    map2 (fun tag writer -> ts ~tag ~writer) (int_range 1 6) (int_range 0 4))

let view_gen =
  QCheck.Gen.(map View.of_list (list_size (int_range 0 12) timestamp_gen))

let view_arb =
  QCheck.make view_gen ~print:(fun v -> Format.asprintf "%a" View.pp v)

let prop_restrict_idempotent =
  QCheck.Test.make ~name:"restrict idempotent" ~count:200 view_arb (fun v ->
      let r = View.restrict v ~max_tag:3 in
      View.equal r (View.restrict r ~max_tag:3))

let prop_restrict_subset =
  QCheck.Test.make ~name:"restrict is a subset" ~count:200 view_arb (fun v ->
      View.subset (View.restrict v ~max_tag:3) v)

let prop_union_monotone =
  QCheck.Test.make ~name:"union contains both" ~count:200
    (QCheck.pair view_arb view_arb) (fun (a, b) ->
      let u = View.union a b in
      View.subset a u && View.subset b u)

let prop_restrict_distributes_union =
  QCheck.Test.make ~name:"restrict distributes over union" ~count:200
    (QCheck.pair view_arb view_arb) (fun (a, b) ->
      View.equal
        (View.restrict (View.union a b) ~max_tag:3)
        (View.union (View.restrict a ~max_tag:3) (View.restrict b ~max_tag:3)))

let prop_count_le =
  QCheck.Test.make ~name:"count_le = cardinal of restrict" ~count:200 view_arb
    (fun v ->
      List.for_all
        (fun r -> View.count_le v ~max_tag:r = View.cardinal (View.restrict v ~max_tag:r))
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* Model test: [View] against the plain timestamp set it replaced, kept
   here as the reference. A program of random steps over a few view
   registers (adds, unions, nested restricts, adds above a restrict's
   bound) runs on both; after every step every query must agree on
   every register. *)
module Ref = struct
  module S = Set.Make (Timestamp)

  let restrict v ~max_tag = S.filter (fun ts -> Timestamp.tag ts <= max_tag) v
  let count_le v ~max_tag = S.cardinal (restrict v ~max_tag)

  let max_tag v =
    match S.max_elt_opt v with None -> 0 | Some ts -> Timestamp.tag ts

  let latest_per_writer v ~n =
    let out = Array.make n None in
    S.iter
      (fun ts ->
        let w = Timestamp.writer ts in
        if w >= 0 && w < n then out.(w) <- Some ts)
      v;
    out
end

type view_step =
  | Add of int * Timestamp.t
  | Union of int * int
  | Restrict of int * int
  | Copy of int * int

let registers = 3

let pp_step = function
  | Add (i, t) -> Printf.sprintf "v%d += %s" i (Timestamp.to_string t)
  | Union (i, j) -> Printf.sprintf "v%d := v%d u v%d" i i j
  | Restrict (i, r) -> Printf.sprintf "v%d := v%d^{<=%d}" i i r
  | Copy (i, j) -> Printf.sprintf "v%d := v%d" i j

let view_step_gen =
  QCheck.Gen.(
    let reg = int_range 0 (registers - 1) in
    frequency
      [
        ( 5,
          map2
            (fun i (tag, writer) -> Add (i, ts ~tag ~writer))
            reg
            (pair (int_range 1 8) (int_range 0 4)) );
        (1, map2 (fun i j -> Union (i, j)) reg reg);
        (2, map2 (fun i r -> Restrict (i, r)) reg (int_range 0 9));
        (1, map2 (fun i j -> Copy (i, j)) reg reg);
      ])

let view_program_arb =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 40) view_step_gen)
    ~print:(fun steps -> String.concat "; " (List.map pp_step steps))

let agrees ?(top = 9) v r =
  let all_ts =
    List.concat_map
      (fun tag -> List.init 5 (fun writer -> ts ~tag ~writer))
      (List.init top (fun k -> k + 1))
  in
  let ts_list_eq a b =
    List.length a = List.length b && List.for_all2 Timestamp.equal a b
  in
  View.cardinal v = Ref.S.cardinal r
  && View.is_empty v = Ref.S.is_empty r
  && View.max_tag v = Ref.max_tag r
  && ts_list_eq (View.elements v) (Ref.S.elements r)
  && ts_list_eq (List.rev (View.fold List.cons v [])) (Ref.S.elements r)
  && (let seen = ref [] in
      View.iter (fun t -> seen := t :: !seen) v;
      ts_list_eq (List.rev !seen) (Ref.S.elements r))
  && List.for_all (fun t -> View.mem t v = Ref.S.mem t r) all_ts
  && List.for_all
       (fun m -> View.count_le v ~max_tag:m = Ref.count_le r ~max_tag:m)
       (List.init (top + 2) (fun k -> k - 1))
  && List.for_all
       (fun n ->
         View.latest_per_writer v ~n = Ref.latest_per_writer r ~n
         && View.extract v ~n ~value_of:Timestamp.tag
            = Array.map (Option.map Timestamp.tag) (Ref.latest_per_writer r ~n))
       [ 0; 2; 3; 6 ]
  && View.equal v (View.of_list (Ref.S.elements r))

let prop_view_model =
  QCheck.Test.make ~name:"view agrees with the timestamp-set model"
    ~count:500 view_program_arb (fun steps ->
      let vs = Array.make registers View.empty in
      let rs = Array.make registers Ref.S.empty in
      let pairs_agree () =
        let ok = ref true in
        for i = 0 to registers - 1 do
          for j = 0 to registers - 1 do
            let a, b = (vs.(i), vs.(j)) and ra, rb = (rs.(i), rs.(j)) in
            if
              View.subset a b <> Ref.S.subset ra rb
              || View.equal a b <> Ref.S.equal ra rb
              || View.comparable a b
                 <> (Ref.S.subset ra rb || Ref.S.subset rb ra)
              || not (agrees (View.union a b) (Ref.S.union ra rb))
            then ok := false
          done
        done;
        !ok
      in
      List.for_all
        (fun step ->
          (match step with
          | Add (i, t) ->
              vs.(i) <- View.add t vs.(i);
              rs.(i) <- Ref.S.add t rs.(i)
          | Union (i, j) ->
              vs.(i) <- View.union vs.(i) vs.(j);
              rs.(i) <- Ref.S.union rs.(i) rs.(j)
          | Restrict (i, r) ->
              vs.(i) <- View.restrict vs.(i) ~max_tag:r;
              rs.(i) <- Ref.restrict rs.(i) ~max_tag:r
          | Copy (i, j) ->
              vs.(i) <- vs.(j);
              rs.(i) <- rs.(j));
          Array.for_all2 agrees vs rs && pairs_agree ())
        steps)

(* Versions are values: a version once returned never changes, whatever
   is later added to it or to its successors. Every step derives a new
   version from any earlier one — so adds land on old versions after
   newer ones exist, and on restricted and united ones — and every
   version ever produced is checked against its model at the end. The
   [Next] steps add a writer's next larger tag, the in-place append
   path; the [Any] steps mostly land below it, the straggler path. *)
type pool_step =
  | Any of int * Timestamp.t
  | Next of int * int * int  (* version, writer, gap above its newest *)
  | Cut of int * int
  | Join of int * int

let pp_pool_step = function
  | Any (i, t) -> Printf.sprintf "v%d + %s" i (Timestamp.to_string t)
  | Next (i, w, g) -> Printf.sprintf "v%d + next(w%d)+%d" i w g
  | Cut (i, r) -> Printf.sprintf "v%d^{<=%d}" i r
  | Join (i, j) -> Printf.sprintf "v%d u v%d" i j

let pool_step_gen =
  QCheck.Gen.(
    let ver = int_bound 1_000 in
    frequency
      [
        ( 2,
          map2
            (fun i (tag, writer) -> Any (i, ts ~tag ~writer))
            ver
            (pair (int_range 1 30) (int_range 0 3)) );
        ( 5,
          map3 (fun i w g -> Next (i, w, g)) ver (int_range 0 3)
            (int_range 1 2) );
        (1, map2 (fun i r -> Cut (i, r)) ver (int_range 0 30));
        (1, map2 (fun i j -> Join (i, j)) ver ver);
      ])

let prop_versions_persist =
  QCheck.Test.make ~name:"every version keeps its members" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) pool_step_gen)
       ~print:(fun steps -> String.concat "; " (List.map pp_pool_step steps)))
    (fun steps ->
      let pool = ref [| (View.empty, Ref.S.empty) |] in
      let pick i = !pool.(i mod Array.length !pool) in
      List.iter
        (fun step ->
          let next =
            match step with
            | Any (i, t) ->
                let v, r = pick i in
                (View.add t v, Ref.S.add t r)
            | Next (i, w, gap) ->
                let v, r = pick i in
                let newest =
                  Ref.S.fold
                    (fun t m ->
                      if Timestamp.writer t = w then max m (Timestamp.tag t)
                      else m)
                    r 0
                in
                let t = ts ~tag:(newest + gap) ~writer:w in
                (View.add t v, Ref.S.add t r)
            | Cut (i, bound) ->
                let v, r = pick i in
                (View.restrict v ~max_tag:bound, Ref.restrict r ~max_tag:bound)
            | Join (i, j) ->
                let (va, ra), (vb, rb) = (pick i, pick j) in
                (View.union va vb, Ref.S.union ra rb)
          in
          pool := Array.append !pool [| next |])
        steps;
      let top =
        Array.fold_left (fun m (_, r) -> max m (Ref.max_tag r)) 0 !pool + 1
      in
      Array.for_all (fun (v, r) -> agrees ~top v r) !pool
      && Array.for_all
           (fun (a, ra) ->
             Array.for_all
               (fun (b, rb) ->
                 View.subset a b = Ref.S.subset ra rb
                 && View.equal a b = Ref.S.equal ra rb)
               !pool)
           !pool)

let test_collector_basics () =
  let c = Collector.create () in
  let r1 = Collector.fresh c in
  let r2 = Collector.fresh c in
  Alcotest.(check bool) "distinct reqs" true (r1 <> r2);
  Collector.record c ~req:r1 ~sender:0 ~payload:5;
  Collector.record c ~req:r1 ~sender:1 ~payload:3;
  Collector.record c ~req:r1 ~sender:0 ~payload:9;
  Alcotest.(check int) "dedup senders" 2 (Collector.count c ~req:r1);
  Alcotest.(check int) "max payload ignores dup" 5
    (Collector.max_payload c ~req:r1);
  Alcotest.(check int) "other req empty" 0 (Collector.count c ~req:r2);
  Collector.forget c ~req:r1;
  Collector.record c ~req:r1 ~sender:2 ~payload:1;
  Alcotest.(check int) "forgotten req ignores acks" 0 (Collector.count c ~req:r1)

(* Senders past the bitmask's 62 bits are counted by the fallback
   table, deduplicated like the rest. *)
let test_collector_wide () =
  let c = Collector.create () in
  let req = Collector.fresh c in
  for round = 1 to 2 do
    for sender = 0 to 99 do
      Collector.record c ~req ~sender ~payload:(sender * round)
    done
  done;
  Alcotest.(check int) "100 distinct senders" 100 (Collector.count c ~req);
  Alcotest.(check int) "first ack's payload per sender" 99
    (Collector.max_payload c ~req)

let test_history_recording () =
  let h = History.create () in
  let u = History.begin_update h ~now:0.0 ~node:0 ~value:7 in
  History.finish_update h ~now:1.5 u;
  let sc = History.begin_scan h ~now:2.0 ~node:1 in
  History.finish_scan h ~now:3.0 sc ~snap:[| Some 7; None |];
  let pending = History.begin_update h ~now:4.0 ~node:1 ~value:8 in
  ignore pending;
  Alcotest.(check int) "three ops" 3 (List.length (History.ops h));
  Alcotest.(check int) "two completed" 2 (List.length (History.completed h));
  Alcotest.(check int) "one pending" 1 (List.length (History.pending h));
  Alcotest.(check bool) "u precedes scan" true (History.precedes u sc);
  Alcotest.(check bool) "scan does not precede u" false (History.precedes sc u);
  Alcotest.(check (option (float 0.0))) "duration" (Some 1.5)
    (History.duration u);
  Alcotest.(check int) "scan result" 2
    (Array.length (History.scan_result sc))

let test_quorum () =
  Alcotest.(check int) "crash f for 8" 3 (Quorum.max_crash_faults 8);
  Alcotest.(check int) "byz f for 10" 3 (Quorum.max_byz_faults 10);
  Alcotest.(check int) "ack quorum" 5 (Quorum.ack_quorum ~n:8 ~f:3);
  Alcotest.check_raises "crash bound enforced"
    (Invalid_argument "crash model needs n > 2f (n=4 f=2)") (fun () ->
      Quorum.check_crash ~n:4 ~f:2);
  Alcotest.check_raises "byz bound enforced"
    (Invalid_argument "Byzantine model needs n > 3f (n=6 f=2)") (fun () ->
      Quorum.check_byz ~n:6 ~f:2)

let test_vec () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Alcotest.(check (list int)) "to_list" (List.init 100 Fun.id) (Vec.to_list v);
  Alcotest.check_raises "bounds" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 100))

let case name f = Alcotest.test_case name `Quick f
let qcase t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "proto.timestamp",
      [
        case "order" test_timestamp_order;
      ] );
    ( "proto.view",
      [
        case "restrict" test_view_restrict;
        case "latest per writer" test_view_latest_per_writer;
        case "extract" test_view_extract;
        case "comparable" test_view_comparable;
        qcase prop_restrict_idempotent;
        qcase prop_restrict_subset;
        qcase prop_union_monotone;
        qcase prop_restrict_distributes_union;
        qcase prop_count_le;
        qcase prop_view_model;
        qcase prop_versions_persist;
      ] );
    ( "proto.misc",
      [
        case "collector" test_collector_basics;
        case "collector past 62 senders" test_collector_wide;
        case "history" test_history_recording;
        case "quorum" test_quorum;
        case "vec" test_vec;
      ] );
  ]
