(* The equivalence-quorum kernel: view bookkeeping, the forward-once
   rule, the V[j] ⊆ V[me] invariant, and — crucially — agreement between
   the incremental predicate in [await_eq] and the non-incremental
   reference [eq_holds] on randomized arrival schedules. *)

let ts ~tag ~writer = Timestamp.make ~tag ~writer

let make_kernel ?(n = 4) ?(me = 0) () =
  let forwarded = ref [] in
  let changed = Sim.Condition.create () in
  let kernel =
    Aso_core.Eq_kernel.create ~n ~me
      ~forward:(fun t v -> forwarded := (t, v) :: !forwarded)
      ~changed:(Aso_core.Backend_sim.condition changed)
  in
  (kernel, forwarded, changed)

let test_receive_updates_views () =
  let k, _, _ = make_kernel () in
  let t1 = ts ~tag:1 ~writer:2 in
  Aso_core.Eq_kernel.receive k ~src:2 t1 222;
  Alcotest.(check bool) "in V[2]" true
    (View.mem t1 (Aso_core.Eq_kernel.view k 2));
  Alcotest.(check bool) "in V[me]" true
    (View.mem t1 (Aso_core.Eq_kernel.my_view k));
  Alcotest.(check bool) "not in V[1]" false
    (View.mem t1 (Aso_core.Eq_kernel.view k 1));
  Alcotest.(check int) "payload stored" 222
    (Aso_core.Eq_kernel.value_of k t1)

let test_forward_once () =
  let k, forwarded, _ = make_kernel () in
  let t1 = ts ~tag:1 ~writer:2 in
  Aso_core.Eq_kernel.receive k ~src:2 t1 9;
  Aso_core.Eq_kernel.receive k ~src:3 t1 9;
  Aso_core.Eq_kernel.receive k ~src:1 t1 9;
  Alcotest.(check int) "forwarded exactly once" 1 (List.length !forwarded)

let test_local_insert_suppresses_forward () =
  let k, forwarded, _ = make_kernel () in
  let t1 = ts ~tag:1 ~writer:0 in
  Aso_core.Eq_kernel.local_insert k t1 5;
  (* own broadcast echoes back *)
  Aso_core.Eq_kernel.receive k ~src:0 t1 5;
  Alcotest.(check int) "no self re-forward" 0 (List.length !forwarded);
  Alcotest.(check bool) "still lands in views" true
    (View.mem t1 (Aso_core.Eq_kernel.my_view k))

let test_subset_invariant_random () =
  let rng = Sim.Rng.create 99L in
  for _ = 1 to 50 do
    let n = 2 + Sim.Rng.int rng 4 in
    let k, _, _ = make_kernel ~n ~me:0 () in
    for _ = 1 to 60 do
      let src = Sim.Rng.int rng n in
      let t = ts ~tag:(1 + Sim.Rng.int rng 5) ~writer:(Sim.Rng.int rng n) in
      Aso_core.Eq_kernel.receive k ~src t 0
    done;
    for j = 0 to n - 1 do
      Alcotest.(check bool) "V[j] ⊆ V[me]" true
        (View.subset
           (Aso_core.Eq_kernel.view k j)
           (Aso_core.Eq_kernel.my_view k))
    done
  done

let test_eq_holds_reference () =
  let k, _, _ = make_kernel ~n:3 ~me:0 () in
  (* n=3, f=1 → quorum 2. Empty views: EQ trivially true. *)
  Alcotest.(check bool) "empty EQ" true
    (Aso_core.Eq_kernel.eq_holds k ~quorum:2 ~max_tag:None);
  let t1 = ts ~tag:1 ~writer:1 in
  Aso_core.Eq_kernel.receive k ~src:1 t1 1;
  (* me has it from 1; V[2] empty → only {me, 1} match. *)
  Alcotest.(check bool) "quorum 2 ok" true
    (Aso_core.Eq_kernel.eq_holds k ~quorum:2 ~max_tag:None);
  Alcotest.(check bool) "quorum 3 not yet" false
    (Aso_core.Eq_kernel.eq_holds k ~quorum:3 ~max_tag:None);
  Aso_core.Eq_kernel.receive k ~src:2 t1 1;
  Alcotest.(check bool) "quorum 3 after echo" true
    (Aso_core.Eq_kernel.eq_holds k ~quorum:3 ~max_tag:None);
  (* restriction: a tag-5 value at me only breaks unrestricted EQ but
     not EQ^{<=1} *)
  let t5 = ts ~tag:5 ~writer:1 in
  Aso_core.Eq_kernel.receive k ~src:1 t5 5;
  Alcotest.(check bool) "unrestricted broken" false
    (Aso_core.Eq_kernel.eq_holds k ~quorum:3 ~max_tag:None);
  Alcotest.(check bool) "restricted still true" true
    (Aso_core.Eq_kernel.eq_holds k ~quorum:3 ~max_tag:(Some 1))

(* Incremental vs reference: run a fiber awaiting EQ while a scripted
   arrival schedule plays out; the fiber must unblock at exactly the
   first instant the reference predicate holds. *)
let test_incremental_matches_reference () =
  let rng = Sim.Rng.create 1234L in
  for trial = 1 to 40 do
    let n = 3 + Sim.Rng.int rng 3 in
    let quorum = n - ((n - 1) / 2) in
    let max_tag = if Sim.Rng.bool rng then None else Some (1 + Sim.Rng.int rng 3) in
    let engine = Sim.Engine.create ~seed:(Int64.of_int trial) () in
    let changed = Sim.Condition.create () in
    let kernel =
      Aso_core.Eq_kernel.create ~n ~me:0 ~forward:(fun _ _ -> ())
        ~changed:(Aso_core.Backend_sim.condition changed)
    in
    (* Schedule arrivals at distinct times; recheck reference after
       each. NOTE: arrival sources/timestamps are arbitrary — the
       kernel's invariant only needs receive's own bookkeeping. Tags
       range well above the bound, so views hold members the bound
       hides both when the await starts and while it waits. *)
    let events = ref [] in
    for i = 1 to 25 do
      let at = float_of_int i *. 0.5 in
      let src = Sim.Rng.int rng n in
      let t =
        ts ~tag:(1 + Sim.Rng.int rng 7) ~writer:(Sim.Rng.int rng n)
      in
      events := (at, src, t) :: !events
    done;
    (* Then every view catches up on everything drawn, in a random
       order, so EQ eventually holds and the unblock instant is tested
       on every trial rather than only the lucky ones. *)
    let drawn =
      List.sort_uniq Timestamp.compare (List.map (fun (_, _, t) -> t) !events)
    in
    let flush =
      List.concat_map
        (fun t ->
          List.init n (fun src -> (Sim.Rng.int rng 1_000_000, src, t)))
        drawn
      |> List.sort compare
    in
    List.iteri
      (fun k (_, src, t) ->
        events := (13.0 +. (float_of_int k *. 0.5), src, t) :: !events)
      flush;
    (* The fiber starts waiting mid-schedule (at t = 6.2, between
       arrivals), so the predicate is usually false at first — the
       trivially-true empty-views case would make the test vacuous. *)
    let await_from = 6.2 in
    let reference_time = ref infinity in
    Sim.Engine.schedule engine ~delay:await_from (fun () ->
        if Aso_core.Eq_kernel.eq_holds kernel ~quorum ~max_tag then
          reference_time := await_from);
    List.iter
      (fun (at, src, t) ->
        Sim.Engine.schedule engine ~delay:at (fun () ->
            Aso_core.Eq_kernel.receive kernel ~src t 0;
            if
              at > await_from
              && !reference_time = infinity
              && Aso_core.Eq_kernel.eq_holds kernel ~quorum ~max_tag
            then reference_time := Sim.Engine.now engine;
            Sim.Condition.signal changed))
      (List.rev !events);
    let incremental_time = ref infinity in
    Sim.Fiber.spawn engine (fun () ->
        Sim.Fiber.sleep engine await_from;
        let (_ : View.t) =
          Aso_core.Eq_kernel.await_eq kernel ~quorum ~max_tag
        in
        incremental_time := Sim.Engine.now engine);
    Sim.Engine.run engine;
    if !reference_time < infinity then
      Alcotest.(check (float 0.0))
        (Printf.sprintf "trial %d: unblock time" trial)
        !reference_time !incremental_time
    else
      Alcotest.(check (float 0.0))
        (Printf.sprintf "trial %d: never unblocks" trial)
        infinity !incremental_time
  done

let test_must_contain_gates () =
  let engine = Sim.Engine.create () in
  let changed = Sim.Condition.create () in
  let kernel =
    Aso_core.Eq_kernel.create ~n:3 ~me:0 ~forward:(fun _ _ -> ())
      ~changed:(Aso_core.Backend_sim.condition changed)
  in
  let t1 = ts ~tag:1 ~writer:0 in
  let done_at = ref (-1.0) in
  Sim.Fiber.spawn engine (fun () ->
      let (_ : View.t) =
        Aso_core.Eq_kernel.await_eq ~must_contain:[ t1 ] kernel ~quorum:2
          ~max_tag:None
      in
      done_at := Sim.Engine.now engine);
  (* EQ on empty views holds, but must_contain blocks until t1 is in
     the local view AND equivalence re-established. *)
  Sim.Engine.schedule engine ~delay:1.0 (fun () ->
      Aso_core.Eq_kernel.receive kernel ~src:0 t1 1;
      Sim.Condition.signal changed);
  Sim.Engine.schedule engine ~delay:2.0 (fun () ->
      Aso_core.Eq_kernel.receive kernel ~src:1 t1 1;
      Sim.Condition.signal changed);
  Sim.Engine.run engine;
  Alcotest.(check (float 0.0)) "gated until value + quorum" 2.0 !done_at

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "core.eq_kernel",
      [
        case "receive updates views" test_receive_updates_views;
        case "forward once" test_forward_once;
        case "local_insert suppresses forward"
          test_local_insert_suppresses_forward;
        case "V[j] subset of V[me]" test_subset_invariant_random;
        case "eq_holds reference" test_eq_holds_reference;
        case "incremental matches reference"
          test_incremental_matches_reference;
        case "must_contain gates" test_must_contain_gates;
      ] );
  ]
