(* The concurrency-verification harness applied to the rt hot-path
   structures, three ways:

   - STM linearizability ([Verif.Stm]): the MPSC mailbox queue and the
     MPMC batch queue against sequential models on 2–4 real domains.
     The MPSC model is allowed-set (pop may stutter [None] during the
     push exchange→link window — the documented Vyukov caveat); the
     MPMC model is strict. Both get a strict sequential drain tail, the
     lost/duplicated-element catcher.

   - Exhaustive interleaving ([Verif.Explore] over [Verif.Tatomic]):
     every schedule of small push/pop and park/signal programs, with
     schedule counts pinned (a pruning regression changes the number)
     and the three seeded mutants ([Skip_link], [No_advance],
     [Lost_signal]) each detected. The park/signal program
     machine-checks the eventcount's no-lost-wakeup argument; its
     signal-before-push variant shows why the contract says the
     producer signals {e after} [push] returns.

   - dejafu-style litmus tables ([Verif.Litmus]): observed outcome sets
     on real domains must be ⊆ the allowed sets the explorer computed.

   Failing explorer expectations drop a [verif-*.schedule] artifact
   (CI uploads them). *)

module T = Verif.Tatomic
module TQ = Rt.Queue.Make (Verif.Tatomic)
module TP = Rt.Park.Make (Verif.Tatomic)
module TM = Rt.Mpmc.Make (Verif.Tatomic)

let show_opt = function None -> "None" | Some v -> "Some " ^ string_of_int v

(* ------------------------------------------------------------------ *)
(* Explorer programs over the traced structures. Thread bodies return
   rendered results; [final] drains what is left (run inline, untraced
   scheduling-wise) so every outcome states both what threads saw and
   what the structure still held. *)

(* Fuel-bounded: the [No_advance] mutant yields the same element
   forever, and an unbounded drain would never terminate. *)
let drain_tq q () =
  let rec go fuel acc =
    if fuel = 0 then "[overflow]"
    else
      match TQ.pop_opt q with
      | Some v -> go (fuel - 1) (string_of_int v :: acc)
      | None -> "[" ^ String.concat " " (List.rev acc) ^ "]"
  in
  go 4 []

let drain_tm q () =
  let rec go fuel acc =
    if fuel = 0 then "[overflow]"
    else
      match TM.pop_opt q with
      | Some v -> go (fuel - 1) (string_of_int v :: acc)
      | None -> "[" ^ String.concat " " (List.rev acc) ^ "]"
  in
  go 4 []

(* push ∥ pop on the MPSC mailbox queue. *)
let prog_push_pop ?mutation () () =
  let q = TQ.create ?mutation () in
  ( [| (fun () -> TQ.push q 1; "()"); (fun () -> show_opt (TQ.pop_opt q)) |],
    drain_tq q )

(* push ∥ push ∥ pop — the litmus program, exhaustively. *)
let prog_push_push_pop () =
  let q = TQ.create () in
  ( [|
      (fun () -> TQ.push q 1; "()");
      (fun () -> TQ.push q 2; "()");
      (fun () -> show_opt (TQ.pop_opt q));
    |],
    drain_tq q )

(* pop twice against one push: catches [No_advance] duplication. *)
let prog_push_pop_pop ?mutation () () =
  let q = TQ.create ?mutation () in
  ( [|
      (fun () -> TQ.push q 1; "()");
      (fun () ->
        let a = show_opt (TQ.pop_opt q) in
        let b = show_opt (TQ.pop_opt q) in
        a ^ "+" ^ b);
    |],
    drain_tq q )

(* The park/signal handshake: consumer runs the full eventcount dance
   (register, re-check, block on the ticket); producer pushes then
   signals. [before_push] inverts the contract (signal first) — the
   explorer must find the lost-wakeup deadlock. Blocking is modelled by
   [Tatomic.until] on the untraced ticket poll; the terminal
   mutex/condvar sleep of [Park.wait] is below this model's horizon
   (see DESIGN §6c on that soundness cap). *)
let prog_park ?mutation ?qmutation ?(before_push = false) () () =
  let q = TQ.create ?mutation:qmutation () in
  let ec = TP.create ?mutation () in
  let rec consume () =
    match TQ.pop_opt q with
    | Some v -> string_of_int v
    | None -> (
        let ticket = TP.prepare ec in
        match TQ.pop_opt q with
        | Some v ->
            TP.cancel ec;
            string_of_int v
        | None ->
            T.until (fun () -> TP.poll_spy ec ticket);
            TP.finish ec;
            consume ())
  in
  ( [|
      (fun () ->
        if before_push then begin
          TP.signal ec;
          TQ.push q 1
        end
        else begin
          TQ.push q 1;
          TP.signal ec
        end;
        "()");
      consume;
    |],
    drain_tq q )

(* push ∥ pop on the MPMC queue (CAS helping dance). *)
let prog_mpmc_push_pop () =
  let q = TM.create () in
  ( [| (fun () -> TM.push q 1; "()"); (fun () -> show_opt (TM.pop_opt q)) |],
    drain_tm q )

(* push ∥ push ∥ pop on the MPMC queue. *)
let prog_mpmc_ppp () =
  let q = TM.create () in
  ( [|
      (fun () -> TM.push q 1; "()");
      (fun () -> TM.push q 2; "()");
      (fun () -> show_opt (TM.pop_opt q));
    |],
    drain_tm q )

(* ------------------------------------------------------------------ *)
(* Assertion helpers. On outcome mismatch, write the offending
   schedules as verif-*.schedule artifacts before failing. *)

let outcome_strings (r : Verif.Explore.report) = List.map fst r.outcomes

let dump_bad ~name ~nthreads (r : Verif.Explore.report) bad =
  List.iter
    (fun o ->
      match List.assoc_opt o r.outcomes with
      | Some sched ->
          let path =
            Verif.Sched.write ~name ~nthreads ~notes:[ "outcome: " ^ o ] sched
          in
          Printf.printf "wrote %s\n%!" path
      | None -> ())
    bad

let check_explore ~name ~nthreads ?expect_schedules ?(expect_deadlocks = false)
    ?allowed (r : Verif.Explore.report) =
  Printf.printf "%s: schedules=%d pruned=%d deadlocks=%d outcomes=%d\n%!" name
    r.schedules r.pruned r.deadlocks (List.length r.outcomes);
  Alcotest.(check bool) (name ^ ": exploration complete (not capped)") false
    r.capped;
  (match allowed with
  | None -> ()
  | Some allowed ->
      let obs = outcome_strings r in
      let bad = List.filter (fun o -> not (List.mem o allowed)) obs in
      if bad <> [] then dump_bad ~name ~nthreads r bad;
      Alcotest.(check (list string)) (name ^ ": forbidden outcomes") [] bad;
      let missing = List.filter (fun o -> not (List.mem o obs)) allowed in
      Alcotest.(check (list string))
        (name ^ ": allowed outcomes never reached — pruning too strong?")
        [] missing);
  (match expect_schedules with
  | None -> ()
  | Some n ->
      Alcotest.(check int)
        (name ^ ": schedule count (pruning regression canary)")
        n r.schedules);
  if expect_deadlocks then
    Alcotest.(check bool) (name ^ ": deadlock found") true (r.deadlocks > 0)
  else Alcotest.(check int) (name ^ ": no deadlocks") 0 r.deadlocks

(* ------------------------------------------------------------------ *)
(* Explorer: toy programs pinning the scheduler + sleep sets. *)

let test_explore_counters () =
  (* Two increments of one cell: dependent, both orders explored. *)
  let prog_same () =
    let c = T.make 0 in
    ( [| (fun () -> T.incr c; "()"); (fun () -> T.incr c; "()") |],
      fun () -> string_of_int (T.get c) )
  in
  let r = Verif.Explore.run prog_same in
  check_explore ~name:"incr-incr same cell" ~nthreads:2 ~expect_schedules:2
    ~allowed:[ "(),()/2" ] r;
  (* Two increments of different cells: independent — sleep sets must
     collapse the pair to a single schedule. *)
  let prog_diff () =
    let a = T.make 0 and b = T.make 0 in
    ( [| (fun () -> T.incr a; "()"); (fun () -> T.incr b; "()") |],
      fun () -> Printf.sprintf "%d%d" (T.get a) (T.get b) )
  in
  let r = Verif.Explore.run prog_diff in
  check_explore ~name:"incr-incr diff cells" ~nthreads:2 ~expect_schedules:1
    ~allowed:[ "(),()/11" ] r;
  Alcotest.(check bool) "independent pair pruned" true (r.pruned >= 1);
  (* Two threads × two dependent ops: C(4,2) = 6 interleavings. *)
  let prog_22 () =
    let c = T.make 0 in
    let body () =
      T.incr c;
      T.incr c;
      "()"
    in
    ([| body; body |], fun () -> string_of_int (T.get c))
  in
  let r = Verif.Explore.run prog_22 in
  check_explore ~name:"2x2 same cell" ~nthreads:2 ~expect_schedules:6
    ~allowed:[ "(),()/4" ] r;
  (* Three threads × two dependent ops: 6!/(2!2!2!) = 90. *)
  let prog_32 () =
    let c = T.make 0 in
    let body () =
      T.incr c;
      T.incr c;
      "()"
    in
    ([| body; body; body |], fun () -> string_of_int (T.get c))
  in
  let r = Verif.Explore.run prog_32 in
  check_explore ~name:"3x2 same cell" ~nthreads:3 ~expect_schedules:90
    ~allowed:[ "(),(),()/6" ] r

(* Lost-update canary: parallel read-modify-write via get/set must
   expose the lost update (the explorer finds the bad interleaving). *)
let test_explore_lost_update () =
  let prog () =
    let c = T.make 0 in
    let body () =
      let v = T.get c in
      T.set c (v + 1);
      "()"
    in
    ([| body; body |], fun () -> string_of_int (T.get c))
  in
  let r = Verif.Explore.run prog in
  (* 4, not the 6 raw interleavings: the two reads commute, and sleep
     sets collapse the read-read orders. *)
  check_explore ~name:"naive rmw" ~nthreads:2 ~expect_schedules:4
    ~allowed:[ "(),()/2"; "(),()/1" ] r

(* ------------------------------------------------------------------ *)
(* Explorer: the MPSC queue. A push is two traced steps (tail exchange,
   then the link) and a pop one (the read of [head.next]); the queue
   keeps no occupancy counter, so the schedule counts below are the
   Mazurkiewicz traces of those steps alone. *)

let pp_allowed = [ "(),None/[1]"; "(),Some 1/[]" ]

let test_explore_push_pop () =
  let r = Verif.Explore.run (prog_push_pop ()) in
  check_explore ~name:"mpsc push-pop" ~nthreads:2 ~expect_schedules:2
    ~allowed:pp_allowed r

let ppp_allowed =
  [
    "(),(),None/[1 2]";
    "(),(),None/[2 1]";
    "(),(),Some 1/[2]";
    "(),(),Some 2/[1]";
  ]

let test_explore_push_push_pop () =
  let r = Verif.Explore.run prog_push_push_pop in
  check_explore ~name:"mpsc push-push-pop" ~nthreads:3 ~expect_schedules:4
    ~allowed:ppp_allowed r

(* The transient-empty contract, pinned: the pop CAN answer None while
   the push is past its tail exchange (the exchange→link window) — the
   "(),None/[1]" outcome above is reachable even if we force the pop to
   start after the exchange: a pop racing one push has a None outcome.
   Complementing it, the park program
   proves the documented remedy (signal after push) never strands the
   consumer. *)
let test_explore_transient_empty () =
  let r = Verif.Explore.run (prog_push_pop ()) in
  (* With push = exchange;link and pop = read, the pop's read can fall
     between the exchange and the link. *)
  let none_outcomes = List.mem "(),None/[1]" (outcome_strings r) in
  Alcotest.(check bool) "transient-empty outcome reachable" true none_outcomes;
  (* And [length] (a walk from head) read by an observer mid-push never
     sees more than 1 (one push) or less than 0. *)
  let prog () =
    let q = TQ.create () in
    ( [|
        (fun () -> TQ.push q 1; "()");
        (fun () -> string_of_int (TQ.length q));
      |],
      drain_tq q )
  in
  let r = Verif.Explore.run prog in
  List.iter
    (fun (o, _) ->
      (* outcome "(),<len>/[1]" — len ∈ {0,1} *)
      let len = String.sub o 3 1 in
      Alcotest.(check bool)
        (Printf.sprintf "depth gauge within bound in %S" o)
        true
        (len = "0" || len = "1"))
    r.outcomes

(* ------------------------------------------------------------------ *)
(* Explorer: park/signal handshake, correct and inverted. *)

let test_explore_park_signal () =
  let r = Verif.Explore.run (prog_park ()) in
  check_explore ~name:"park-signal" ~nthreads:2 ~expect_schedules:6
    ~allowed:[ "(),1/[]" ] r

let test_explore_signal_before_push () =
  let r = Verif.Explore.run (prog_park ~before_push:true ()) in
  Alcotest.(check bool) "signal-before-push loses a wakeup" true
    (r.deadlocks > 0)

(* ------------------------------------------------------------------ *)
(* Explorer: the three seeded mutants must each be detected. *)

(* A push that never links its node strands the parked consumer: the
   nonempty spy stays false forever. Every schedule ends in the same
   deadlock, which the explorer reports. *)
let test_mutant_skip_link () =
  let r = Verif.Explore.run (prog_park ~qmutation:Rt.Queue.Skip_link ()) in
  Alcotest.(check bool) "Skip_link strands the consumer" true
    (r.deadlocks > 0)

let test_mutant_no_advance () =
  let r = Verif.Explore.run (prog_push_pop_pop ~mutation:Rt.Queue.No_advance ())
  in
  (* Duplication: some outcome hands the consumer the same element
     twice. *)
  let prefix = "(),Some 1+Some 1/" in
  let dup =
    List.exists
      (fun (o, _) ->
        String.length o >= String.length prefix
        && String.sub o 0 (String.length prefix) = prefix)
      r.outcomes
  in
  Alcotest.(check bool) "No_advance duplicates" true dup

let test_mutant_lost_signal () =
  let r = Verif.Explore.run (prog_park ~mutation:Rt.Park.Lost_signal ()) in
  Alcotest.(check bool) "Lost_signal deadlocks" true (r.deadlocks > 0)

(* And the unmutated versions of the same programs pass their full
   explorations — together with the allowed-set checks above, this is
   the harness self-test: mutants fail, clean code passes. *)
let test_unmutated_pass () =
  let r = Verif.Explore.run (prog_push_pop_pop ()) in
  check_explore ~name:"push-pop-pop clean" ~nthreads:2 ~expect_schedules:3
    ~allowed:
      [
        "(),None+None/[1]";
        "(),None+Some 1/[]";
        "(),Some 1+None/[]";
      ]
    r

(* ------------------------------------------------------------------ *)
(* Explorer: MPMC. *)

let test_explore_mpmc () =
  let r = Verif.Explore.run prog_mpmc_push_pop in
  check_explore ~name:"mpmc push-pop" ~nthreads:2 ~expect_schedules:2
    ~allowed:pp_allowed r;
  let r = Verif.Explore.run prog_mpmc_ppp in
  check_explore ~name:"mpmc push-push-pop" ~nthreads:3 ~allowed:ppp_allowed r

(* ------------------------------------------------------------------ *)
(* STM linearizability. *)

module MpscSpec = struct
  type cmd = Push of int | Pop | SeqPop
  type state = int list
  type sut = int Rt.Queue.t

  let init_state = []
  let init_sut () = Rt.Queue.create ()
  let cleanup _ = ()

  let show_cmd = function
    | Push v -> Printf.sprintf "push%d" v
    | Pop -> "pop"
    | SeqPop -> "pop!"

  let gen_cmd rng =
    if Random.State.bool rng then Push (Random.State.int rng 9) else Pop

  let gen_push rng = Push (Random.State.int rng 9)

  let run q = function
    | Push v ->
        Rt.Queue.push q v;
        "()"
    | Pop | SeqPop -> show_opt (Rt.Queue.pop_opt q)

  (* Allowed-set model: a parallel-phase pop may stutter None (the
     exchange→link window); the sequential tail's SeqPop may not. *)
  let run_model st = function
    | Push v -> [ (st @ [ v ], "()") ]
    | Pop -> (
        match st with
        | [] -> [ (st, "None") ]
        | x :: rest -> [ (rest, show_opt (Some x)); (st, "None") ])
    | SeqPop -> (
        match st with
        | [] -> [ (st, "None") ]
        | x :: rest -> [ (rest, show_opt (Some x)) ])
end

module MpscStm = Verif.Stm.Make (MpscSpec)

(* Only parallel domain 0 pops — the single-consumer contract. *)
let mpsc_gen d rng =
  if d = 0 then MpscSpec.gen_cmd rng else MpscSpec.gen_push rng

let stm_mpsc ~domains ~par_len ~count ~reps () =
  let tail () = List.init (2 + (domains * par_len)) (fun _ -> MpscSpec.SeqPop) in
  match
    MpscStm.check ~seq_len:2 ~par_len ~domains ~count ~reps
      ~gen_par:mpsc_gen ~tail ()
  with
  | Ok () -> ()
  | Error tr -> Alcotest.fail tr

module MpmcSpec = struct
  type cmd = Push of int | Pop
  type state = int list
  type sut = int Rt.Mpmc.t

  let init_state = []
  let init_sut () = Rt.Mpmc.create ()
  let cleanup _ = ()

  let show_cmd = function
    | Push v -> Printf.sprintf "push%d" v
    | Pop -> "pop"

  let gen_cmd rng =
    if Random.State.bool rng then Push (Random.State.int rng 9) else Pop

  let run q = function
    | Push v ->
        Rt.Mpmc.push q v;
        "()"
    | Pop -> show_opt (Rt.Mpmc.pop_opt q)

  (* Strict FIFO: the MPMC queue has no transient-empty window. *)
  let run_model st = function
    | Push v -> [ (st @ [ v ], "()") ]
    | Pop -> (
        match st with
        | [] -> [ (st, "None") ]
        | x :: rest -> [ (rest, show_opt (Some x)) ])
end

module MpmcStm = Verif.Stm.Make (MpmcSpec)

let stm_mpmc ~domains ~par_len ~count ~reps () =
  let tail () = List.init (2 + (domains * par_len)) (fun _ -> MpmcSpec.Pop) in
  match MpmcStm.check ~seq_len:2 ~par_len ~domains ~count ~reps ~tail () with
  | Ok () -> ()
  | Error tr -> Alcotest.fail tr

(* ------------------------------------------------------------------ *)
(* Litmus tables on real domains: observed ⊆ allowed (computed by the
   exhaustive explorer above). *)

let litmus_push_push_pop () =
  let mk () =
    let q = Rt.Queue.create () in
    [|
      (fun () -> Rt.Queue.push q 1; "()");
      (fun () -> Rt.Queue.push q 2; "()");
      (fun () ->
        let a = show_opt (Rt.Queue.pop_opt q) in
        let b = show_opt (Rt.Queue.pop_opt q) in
        a ^ "+" ^ b);
    |]
  in
  let allowed =
    [
      "(),(),None+None";
      "(),(),None+Some 1";
      "(),(),None+Some 2";
      "(),(),Some 1+None";
      "(),(),Some 2+None";
      "(),(),Some 1+Some 2";
      "(),(),Some 2+Some 1";
    ]
  in
  match Verif.Litmus.check ~rounds:400 ~name:"push/push/pop" ~allowed mk with
  | Ok observed ->
      Printf.printf "litmus push/push/pop observed: %s\n%!"
        (String.concat " | " observed)
  | Error e -> Alcotest.fail e

let litmus_park_signal () =
  let mk () =
    let q = Rt.Queue.create () in
    let ec = Rt.Park.create () in
    [|
      (fun () ->
        Rt.Queue.push q 1;
        Rt.Park.signal ec;
        "()");
      (fun () ->
        let rec consume () =
          match Rt.Queue.pop_opt q with
          | Some v -> string_of_int v
          | None -> (
              let ticket = Rt.Park.prepare ec in
              match Rt.Queue.pop_opt q with
              | Some v ->
                  Rt.Park.cancel ec;
                  string_of_int v
              | None ->
                  Rt.Park.wait ec ticket;
                  Rt.Park.finish ec;
                  consume ())
        in
        consume ());
    |]
  in
  (* Liveness on real hardware: the consumer always gets the element —
     a lost wakeup here hangs the test (CI's hard timeout catches it).
  *)
  match Verif.Litmus.check ~rounds:400 ~name:"park/signal" ~allowed:[ "(),1" ] mk
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "verif",
      [
        Alcotest.test_case "explorer: counter schedule counts" `Quick
          test_explore_counters;
        Alcotest.test_case "explorer: naive rmw loses an update" `Quick
          test_explore_lost_update;
        Alcotest.test_case "explorer: mpsc push|pop" `Quick
          test_explore_push_pop;
        Alcotest.test_case "explorer: mpsc push|push|pop" `Quick
          test_explore_push_push_pop;
        Alcotest.test_case "explorer: transient-empty window + depth bound"
          `Quick test_explore_transient_empty;
        Alcotest.test_case "explorer: park/signal never loses a wakeup" `Quick
          test_explore_park_signal;
        Alcotest.test_case "explorer: signal-before-push deadlocks" `Quick
          test_explore_signal_before_push;
        Alcotest.test_case "mutant: Skip_link detected" `Quick
          test_mutant_skip_link;
        Alcotest.test_case "mutant: No_advance detected" `Quick
          test_mutant_no_advance;
        Alcotest.test_case "mutant: Lost_signal detected" `Quick
          test_mutant_lost_signal;
        Alcotest.test_case "unmutated programs pass full exploration" `Quick
          test_unmutated_pass;
        Alcotest.test_case "explorer: mpmc push|pop, push|push|pop" `Quick
          test_explore_mpmc;
        Alcotest.test_case "stm: mpsc 2 domains" `Slow
          (stm_mpsc ~domains:2 ~par_len:4 ~count:15 ~reps:8);
        Alcotest.test_case "stm: mpsc 3 domains" `Slow
          (stm_mpsc ~domains:3 ~par_len:3 ~count:10 ~reps:6);
        Alcotest.test_case "stm: mpsc 4 domains" `Slow
          (stm_mpsc ~domains:4 ~par_len:3 ~count:8 ~reps:5);
        Alcotest.test_case "stm: mpmc 2 domains" `Slow
          (stm_mpmc ~domains:2 ~par_len:4 ~count:15 ~reps:8);
        Alcotest.test_case "stm: mpmc 3 domains" `Slow
          (stm_mpmc ~domains:3 ~par_len:3 ~count:10 ~reps:6);
        Alcotest.test_case "stm: mpmc 4 domains" `Slow
          (stm_mpmc ~domains:4 ~par_len:3 ~count:8 ~reps:5);
        Alcotest.test_case "litmus: push/push/pop table" `Slow
          litmus_push_push_pop;
        Alcotest.test_case "litmus: park/signal handshake" `Slow
          litmus_park_signal;
      ] );
  ]
