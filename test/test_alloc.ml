(* Allocation budgets for the rt hot path. Every OCaml 5 minor
   collection stops all domains, so on rt the words a message or an
   operation allocates set how often every node pauses. Each budget is
   measured on one domain with [Gc.minor_words] (this domain's
   allocation only), averaged over many repetitions, and bounded just
   above today's figure: a change that allocates more on these paths
   must say so by moving a bound. *)

(* Minor words per call of [f], averaged over [reps] calls. *)
let words_per ?(reps = 2000) f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int reps

let check_budget name ~budget words =
  Printf.printf "%s: %.2f minor words (budget %d)\n%!" name words budget;
  if words > float_of_int budget then
    Alcotest.failf "%s allocates %.2f words, budget %d" name words budget

(* One message through the rt network with the causal log on: the send
   on [src]'s side, the pop and delivery (and its causal record) on
   [dst]'s, here both driven from the test's domain. The message itself
   is built once, outside the measurement. *)
let test_send_pop () =
  let net = Rt.Net.create ~causal:true ~n:3 () in
  let dst = Rt.Net.node net 1 in
  let got = ref 0 and want = ref 0 in
  Rt.Node.set_handler dst (fun ~src:_ (_ : int) -> incr got);
  let pred () = !got >= !want in
  let msg = 7 in
  let one () =
    incr want;
    Rt.Net.send net ~src:0 ~dst:1 msg;
    Rt.Node.await dst pred
  in
  (* The causal log's shards grow to their cap as they fill: measure
     the steady state past it. *)
  for _ = 1 to 20_000 do
    one ()
  done;
  check_budget "Rt.Net.send + pop" ~budget:10 (words_per one)

(* One quorum phase at n = 3: a fresh request, three acks, the quorum
   reads, the forget. *)
let test_collector_phase () =
  let c = Collector.create () in
  let phase () =
    let req = Collector.fresh c in
    for sender = 0 to 2 do
      Collector.record c ~req ~sender ~payload:sender
    done;
    ignore (Collector.count c ~req >= 2 : bool);
    ignore (Collector.max_payload c ~req : int);
    Collector.forget c ~req
  in
  check_budget "Collector phase (n = 3)" ~budget:10 (words_per phase)

(* A 5000-tag view over three writers, each writer's tags ascending. *)
let big_view () =
  let v = ref View.empty in
  for tag = 1 to 5000 do
    v := View.add (Timestamp.make ~tag:(2 * tag) ~writer:(tag mod 3)) !v
  done;
  !v

let reps = 2000

(* The timestamps are built before the measurement: they are the
   caller's allocation, not the view's. *)
let stamps f = Array.init reps (fun k -> f k)

(* The newest version takes each writer's next larger tag. *)
let test_view_add_in_order () =
  let v = ref (big_view ()) and k = ref (-1) in
  let ts = stamps (fun k -> Timestamp.make ~tag:(10_002 + k) ~writer:(k mod 3)) in
  let add () =
    k := (!k + 1) mod reps;
    v := View.add ts.(!k) !v
  in
  check_budget "View.add, in order, 5000 tags" ~budget:16
    (words_per ~reps:(reps - 1) add)

(* A tag below the writer's newest one, into the same base version each
   time: the straggler path. *)
let test_view_add_out_of_order () =
  let v = big_view () and k = ref (-1) in
  let ts = stamps (fun k -> Timestamp.make ~tag:((2 * k) + 1) ~writer:0) in
  let add () =
    k := (!k + 1) mod reps;
    ignore (View.add ts.(!k) v : View.t)
  in
  check_budget "View.add, out of order, 5000 tags" ~budget:21
    (words_per ~reps:(reps - 1) add)

(* A rejoining node hears a writer's newer values before its recovery
   push replays the older ones: 5000 tags into one writer, newest first,
   cost O(1) words each (stragglers merge into the run geometrically),
   and a whole-set walk over two such views from different lineages
   allocates next to nothing. A walk that copied the members into
   arrays made a rejoined SSO node too slow to finish its rejoin. *)
let test_view_descending () =
  let build () =
    let v = ref View.empty in
    for tag = 5000 downto 1 do
      v := View.add (Timestamp.make ~tag ~writer:0) !v
    done;
    !v
  in
  let a = build () in
  let per_add = words_per ~reps:5 (fun () -> ignore (build () : View.t)) /. 5000. in
  (* The stamps are the caller's: three words each. *)
  check_budget "View.add, newest first, per insert" ~budget:64 (per_add -. 3.);
  let b = build () in
  check_budget "View.subset over stragglers" ~budget:16
    (words_per ~reps:20 (fun () -> ignore (View.subset a b : bool)))

(* An UPDATE's history boundaries, with an observer as the live monitor
   installs one. *)
let test_history () =
  let h = History.create ~observe:(fun _ -> ()) () in
  let now = 1.5 in
  let op () =
    let op = History.begin_update h ~now ~node:0 ~value:1 in
    History.finish_update h ~now op
  in
  (* The history keeps every op in a growing vector: fill it to 300
     (capacity 512, a major-heap block) and measure 200 more, so no
     growth lands inside the measurement. *)
  for _ = 1 to 300 do
    op ()
  done;
  check_budget "History begin + finish" ~budget:22 (words_per ~reps:200 op)

let suites =
  [
    ( "alloc",
      [
        Alcotest.test_case "rt send + pop" `Quick test_send_pop;
        Alcotest.test_case "collector phase" `Quick test_collector_phase;
        Alcotest.test_case "view add in order" `Quick test_view_add_in_order;
        Alcotest.test_case "view add out of order" `Quick
          test_view_add_out_of_order;
        Alcotest.test_case "view, newest first" `Quick test_view_descending;
        Alcotest.test_case "history begin + finish" `Quick test_history;
      ] );
  ]
