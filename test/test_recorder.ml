(* The observability layer added for the rt backend: the log-bucketed
   Hdr histogram (bounded relative error, mergeable across domains), the
   flight-recorder rings (single-writer, torn-read-free concurrent
   drain), and the exposition formats (Prometheus text, the versioned
   "aso-stats 1" snapshot file). *)

let qcase t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Hdr: every observed value must come back within the documented 10%
   relative-error budget (the 16-sub-buckets-per-octave design actually
   bounds it at 1/32 ≈ 3.1%). Checked via the bucket round-trip: the
   midpoint of the bucket a value lands in is the worst any statistic
   can misreport that value. *)

let hdr_relative_error =
  QCheck.Test.make ~count:1000 ~name:"hdr bucket error <= 10%"
    (* Latencies span sub-microsecond to minutes: exercise ~9 decades. *)
    QCheck.(map (fun x -> exp x) (float_range (-14.) 7.))
    (fun v ->
      let i = Obs.Hdr.index_of v in
      let back = Obs.Hdr.value_of i in
      Float.abs (back -. v) /. v <= 0.1)

let hdr_quantile_error =
  QCheck.Test.make ~count:200 ~name:"hdr quantiles within 10% of exact"
    QCheck.(list_of_size (Gen.int_range 1 500) (map abs_float pos_float))
    (fun sample ->
      let sample = List.map (fun v -> v +. 1e-9) sample in
      let h = Obs.Hdr.create () in
      List.iter (Obs.Hdr.observe h) sample;
      let sorted = Array.of_list (List.sort Float.compare sample) in
      let n = Array.length sorted in
      List.for_all
        (fun q ->
          (* exact nearest-rank quantile on the raw sample *)
          let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
          let exact = sorted.(rank - 1) in
          match Obs.Hdr.quantile h q with
          | None -> false
          | Some est -> Float.abs (est -. exact) /. exact <= 0.1)
        [ 0.5; 0.9; 0.99; 0.999 ])

let dist_of_list l =
  let h = Obs.Hdr.create () in
  List.iter (Obs.Hdr.observe h) l;
  Obs.Hdr.snapshot h

let positive_floats =
  QCheck.(small_list (map (fun v -> abs_float v +. 1e-9) pos_float))

let hdr_merge_commutative =
  QCheck.Test.make ~count:300 ~name:"hdr merge is commutative"
    QCheck.(pair positive_floats positive_floats)
    (fun (a, b) ->
      let da = dist_of_list a and db = dist_of_list b in
      Obs.Hdr.dist_merge da db = Obs.Hdr.dist_merge db da)

let hdr_merge_associative =
  QCheck.Test.make ~count:300 ~name:"hdr merge is associative"
    QCheck.(triple positive_floats positive_floats positive_floats)
    (fun (a, b, c) ->
      let da = dist_of_list a
      and db = dist_of_list b
      and dc = dist_of_list c in
      Obs.Hdr.dist_merge (Obs.Hdr.dist_merge da db) dc
      = Obs.Hdr.dist_merge da (Obs.Hdr.dist_merge db dc))

let hdr_merge_counts () =
  let a = dist_of_list [ 1.0; 2.0; 3.0 ]
  and b = dist_of_list [ 0.5; 2.0 ] in
  let m = Obs.Hdr.dist_merge a b in
  Alcotest.(check int) "count adds" 5 m.Obs.Hdr.d_count;
  Alcotest.(check int)
    "bucket counts add" 5
    (List.fold_left (fun acc (_, c) -> acc + c) 0 m.Obs.Hdr.d_buckets);
  (* merging with empty is identity *)
  Alcotest.(check bool)
    "empty is neutral" true
    (Obs.Hdr.dist_merge a Obs.Hdr.empty_dist = a)

let hdr_multi_domain () =
  (* 4 domains, 10k observations each, one shared histogram: the atomic
     buckets must lose nothing. *)
  let h = Obs.Hdr.create () in
  let per = 10_000 in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              Obs.Hdr.observe h (float_of_int ((d * per) + i))
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "no lost observations" (4 * per) (Obs.Hdr.count h)

(* ------------------------------------------------------------------ *)
(* Recorder rings *)

let recorder_basic () =
  let r = Obs.Recorder.create ~capacity:16 ~n:2 () in
  let c_op = Obs.Recorder.intern r ~cat:"op" "op.update" in
  let c_depth = Obs.Recorder.intern r "mailbox.depth" in
  Alcotest.(check int)
    "intern is find-or-create" c_op
    (Obs.Recorder.intern r ~cat:"op" "op.update");
  let ring = Obs.Recorder.ring r 0 in
  Obs.Recorder.span_begin ring ~code:c_op ~ts:1.0;
  Obs.Recorder.counter ring ~code:c_depth ~ts:2.0 ~value:7.;
  Obs.Recorder.span_end ring ~code:c_op ~ts:3.0;
  let evs = Obs.Recorder.events r in
  Alcotest.(check int) "three events" 3 (List.length evs);
  Alcotest.(check int) "emitted" 3 (Obs.Recorder.total_emitted r);
  Alcotest.(check int) "nothing overwritten" 0
    (Obs.Recorder.total_overwritten r);
  match evs with
  | [ a; b; c ] ->
      Alcotest.(check bool) "kinds" true
        (a.Obs.Recorder.e_kind = Obs.Recorder.Span_begin
        && b.Obs.Recorder.e_kind = Obs.Recorder.Counter
        && c.Obs.Recorder.e_kind = Obs.Recorder.Span_end);
      Alcotest.(check (float 0.0)) "value carried" 7. b.Obs.Recorder.e_value
  | _ -> Alcotest.fail "event list shape"

let recorder_wrap () =
  let r = Obs.Recorder.create ~capacity:8 ~n:1 () in
  let c = Obs.Recorder.intern r "e" in
  let ring = Obs.Recorder.ring r 0 in
  for i = 1 to 20 do
    Obs.Recorder.instant ring ~code:c ~ts:(float_of_int i) ~value:0.
  done;
  let evs = Obs.Recorder.drain_ring ring in
  Alcotest.(check int) "keeps the freshest capacity events" 8
    (List.length evs);
  Alcotest.(check int) "overwritten accounted" 12
    (Obs.Recorder.overwritten ring);
  Alcotest.(check (float 0.0)) "oldest kept is #13" 13.
    (List.hd evs).Obs.Recorder.e_ts

let recorder_concurrent_drain () =
  (* The tentpole's memory-model claim: per-domain writers never
     coordinate with the collector, yet a concurrent drain returns no
     torn event. Writers stamp value = pid * 1e6 + seq; any event whose
     payload disagrees with its ring's encoding was torn. *)
  let n = 4 and per = 50_000 in
  let r = Obs.Recorder.create ~capacity:512 ~n () in
  let c = Obs.Recorder.intern r "w" in
  let writers =
    List.init n (fun pid ->
        Domain.spawn (fun () ->
            let ring = Obs.Recorder.ring r pid in
            for i = 0 to per - 1 do
              Obs.Recorder.instant ring ~code:c
                ~ts:(float_of_int i)
                ~value:(float_of_int ((pid * 1_000_000) + i))
            done))
  in
  let torn = ref 0 and drained = ref 0 in
  (* Drain continuously while writers are hot. *)
  for _ = 1 to 200 do
    List.iter
      (fun (ev : Obs.Recorder.event) ->
        incr drained;
        let expect =
          float_of_int ((ev.e_pid * 1_000_000) + int_of_float ev.e_ts)
        in
        if ev.e_value <> expect || ev.e_code <> c then incr torn)
      (Obs.Recorder.events r)
  done;
  List.iter Domain.join writers;
  Alcotest.(check int) "no torn events under concurrent drain" 0 !torn;
  Alcotest.(check bool) "drains actually observed events" true
    (!drained > 0);
  Alcotest.(check int) "emission counter exact" (n * per)
    (Obs.Recorder.total_emitted r);
  (* Post-quiescence drain: full rings, every slot valid. *)
  let final = Obs.Recorder.events r in
  Alcotest.(check int) "final drain returns full rings" (n * 512)
    (List.length final);
  List.iter
    (fun (ev : Obs.Recorder.event) ->
      let expect =
        float_of_int ((ev.e_pid * 1_000_000) + int_of_float ev.e_ts)
      in
      if ev.e_value <> expect then Alcotest.fail "torn event after join")
    final

let recorder_to_trace () =
  let r = Obs.Recorder.create ~capacity:16 ~n:1 () in
  let c = Obs.Recorder.intern r ~cat:"op" "op.scan" in
  let ring = Obs.Recorder.ring r 0 in
  Obs.Recorder.span_begin ring ~code:c ~ts:0.001;
  Obs.Recorder.span_end ring ~code:c ~ts:0.002;
  let tr = Obs.Recorder.to_trace ~mul:1e3 r in
  let json = Obs.Trace.to_chrome tr in
  Alcotest.(check bool) "chrome JSON has the span" true
    (let has s =
       let rec find i =
         if i + String.length s > String.length json then false
         else if String.sub json i (String.length s) = s then true
         else find (i + 1)
       in
       find 0
     in
     has "\"op.scan\"" && has "\"ph\":\"B\"" && has "\"ph\":\"E\"")

(* ------------------------------------------------------------------ *)
(* Exposition *)

let expo_roundtrip =
  QCheck.Test.make ~count:200 ~name:"aso-stats save/load round-trips"
    QCheck.(
      pair (small_list (pair small_nat (map abs_float float))) positive_floats)
    (fun (counts, samples) ->
      let reg = Obs.Metrics.create () in
      List.iteri
        (fun i (c, g) ->
          Obs.Metrics.add (Obs.Metrics.counter reg (Printf.sprintf "c%d" i)) c;
          Obs.Metrics.set (Obs.Metrics.gauge reg (Printf.sprintf "g%d" i)) g)
        counts;
      let h = Obs.Metrics.histogram reg "h" in
      let l = Obs.Metrics.log_histogram reg "l" in
      List.iter
        (fun v ->
          Obs.Metrics.observe h v;
          Obs.Metrics.record l v)
        samples;
      let snap = Obs.Metrics.sorted (Obs.Metrics.snapshot reg) in
      Obs.Expo.load_string (Obs.Expo.save_string snap) = snap)

let expo_rejects_garbage () =
  Alcotest.check_raises "bad header"
    (Failure "Obs.Expo.load: bad header \"nope\" (want \"aso-stats 1\")")
    (fun () -> ignore (Obs.Expo.load_string "nope\ncounter a 1\n"));
  Alcotest.(check bool) "bad bucket index fails" true
    (match Obs.Expo.load_string "aso-stats 1\ndist d 1 99999:1\n" with
    | exception Failure _ -> true
    | exception Invalid_argument _ -> true
    | _ -> false)

let expo_prometheus_shape () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter reg "net.sent") 42;
  let l = Obs.Metrics.log_histogram reg "svc.update_latency_s" in
  List.iter (Obs.Metrics.record l) [ 0.001; 0.002; 0.003 ];
  let text = Obs.Expo.to_prometheus (Obs.Metrics.snapshot reg) in
  let has s =
    let rec find i =
      if i + String.length s > String.length text then false
      else if String.sub text i (String.length s) = s then true
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check bool) "counter line" true (has "aso_net_sent 42");
  Alcotest.(check bool) "type line" true
    (has "# TYPE aso_net_sent counter");
  Alcotest.(check bool) "summary quantile" true
    (has "aso_svc_update_latency_s{quantile=\"0.5\"}");
  Alcotest.(check bool) "summary count" true
    (has "aso_svc_update_latency_s_count 3");
  (* exposition names are sanitized, never dotted *)
  Alcotest.(check bool) "no dotted names" true
    (not (has "net.sent"))

(* Per-writer counter cells: k domains each bump their own cell m
   times; every read path (count, snapshot, exposition) sees the sum,
   under the counter's one exported name. *)
let metrics_per_writer_counter () =
  let k = 4 and m = 100_000 in
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~writers:k reg "net.sent" in
  List.init k (fun w ->
      Domain.spawn (fun () ->
          for _ = 1 to m do
            Obs.Metrics.incr_at c w
          done))
  |> List.iter Domain.join;
  Alcotest.(check int) "count sums the cells" (k * m) (Obs.Metrics.count c);
  let snap = Obs.Metrics.snapshot reg in
  Alcotest.(check (option int)) "snapshot sums the cells" (Some (k * m))
    (Obs.Metrics.find_count snap "net.sent");
  let text = Obs.Expo.to_prometheus snap in
  Alcotest.(check string) "exposition unchanged"
    (Printf.sprintf "# TYPE aso_net_sent counter\naso_net_sent %d\n" (k * m))
    text;
  Alcotest.(check bool) "find-or-create returns the same counter" true
    (Obs.Metrics.counter ~writers:k reg "net.sent" == c);
  Alcotest.(check bool) "another writer count is refused" true
    (match Obs.Metrics.counter reg "net.sent" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suites =
  [
    ( "recorder",
      [
        qcase hdr_relative_error;
        qcase hdr_quantile_error;
        qcase hdr_merge_commutative;
        qcase hdr_merge_associative;
        Alcotest.test_case "hdr merge counts add" `Quick hdr_merge_counts;
        Alcotest.test_case "hdr multi-domain observe" `Quick hdr_multi_domain;
        Alcotest.test_case "ring basic emit/drain" `Quick recorder_basic;
        Alcotest.test_case "ring wrap keeps freshest" `Quick recorder_wrap;
        Alcotest.test_case "ring concurrent drain, no torn events" `Quick
          recorder_concurrent_drain;
        Alcotest.test_case "ring exports through Obs.Trace" `Quick
          recorder_to_trace;
        qcase expo_roundtrip;
        Alcotest.test_case "expo rejects garbage" `Quick expo_rejects_garbage;
        Alcotest.test_case "prometheus exposition shape" `Quick
          expo_prometheus_shape;
        Alcotest.test_case "per-writer counter: k domains, one sum" `Quick
          metrics_per_writer_counter;
      ] );
  ]
