(* The reliable-FIFO channel state machines ([Chan]) that both the
   simulator's transport and the socket backend drive: hand-written
   units for each operation, then one tx/rx pair checked against a
   sequential model over random drop, dup, reorder, reconnect and
   reboot schedules, under both drivers' ack policies. *)

(* ---- units ----------------------------------------------------------- *)

let test_rx_order () =
  let r = Chan.rx ~ack_every:1 () in
  Alcotest.(check (list string)) "in-order 0" [ "a" ] (Chan.rx_data r ~seq:0 "a");
  Alcotest.(check (list string)) "in-order 1" [ "b" ] (Chan.rx_data r ~seq:1 "b");
  Alcotest.(check (list string)) "dup dropped" [] (Chan.rx_data r ~seq:0 "a");
  Alcotest.(check (list string)) "gap buffers" [] (Chan.rx_data r ~seq:3 "d");
  Alcotest.(check (list string))
    "gap fill flushes in order" [ "c"; "d" ]
    (Chan.rx_data r ~seq:2 "c");
  Alcotest.(check int) "expected advances" 4 (Chan.rx_expected r);
  Chan.rx_reset r;
  Alcotest.(check int) "reset rewinds" 0 (Chan.rx_expected r);
  Alcotest.(check (list string)) "fresh channel" [ "z" ] (Chan.rx_data r ~seq:0 "z")

let test_tx_ack_trim () =
  let t = Chan.tx ~rto0:0.1 ~rto_max:2.0 () in
  Alcotest.(check int) "seq 0" 0 (Chan.tx_send t ~now:0.0 "a");
  Alcotest.(check int) "seq 1" 1 (Chan.tx_send t ~now:0.0 "b");
  Alcotest.(check int) "seq 2" 2 (Chan.tx_send t ~now:0.0 "c");
  Alcotest.(check bool) "ack trims" true (Chan.tx_ack t ~now:0.01 ~upto:2);
  Alcotest.(check int) "one left" 1 (Chan.tx_unacked t);
  Alcotest.(check bool) "stale ack is no progress" false
    (Chan.tx_ack t ~now:0.02 ~upto:2);
  Alcotest.(check bool) "final ack" true (Chan.tx_ack t ~now:0.03 ~upto:3);
  Alcotest.(check int) "drained" 0 (Chan.tx_unacked t)

let test_tx_backoff () =
  let t = Chan.tx ~rto0:0.1 ~rto_max:0.3 () in
  ignore (Chan.tx_send t ~now:0.0 "a");
  Alcotest.(check int) "not yet due" 0 (List.length (Chan.tx_due t ~now:0.05));
  Alcotest.(check (list (pair int string)))
    "due after rto" [ (0, "a") ] (Chan.tx_due t ~now:0.11);
  (* rto doubled to 0.2, re-armed at 0.11 *)
  Alcotest.(check int) "backed off" 0 (List.length (Chan.tx_due t ~now:0.25));
  Alcotest.(check (list (pair int string)))
    "due after doubled rto" [ (0, "a") ] (Chan.tx_due t ~now:0.32);
  (* rto capped at 0.3, re-armed at 0.32 *)
  Alcotest.(check int) "capped not yet" 0 (List.length (Chan.tx_due t ~now:0.60));
  Alcotest.(check (list (pair int string)))
    "due after capped rto" [ (0, "a") ] (Chan.tx_due t ~now:0.63)

let test_tx_reconnect () =
  let t = Chan.tx () in
  ignore (Chan.tx_send t ~now:0.0 "a");
  ignore (Chan.tx_send t ~now:0.0 "b");
  ignore (Chan.tx_send t ~now:0.0 "c");
  (* same incarnation: the peer already delivered seq 0 and 1 *)
  Alcotest.(check (list (pair int string)))
    "resync trims delivered" [ (2, "c") ]
    (Chan.tx_reconnect t ~now:0.1 ~rx_expected:2);
  Alcotest.(check int) "numbering preserved" 3 (Chan.tx_next_seq t);
  (* peer restarted: what was queued for the dead incarnation is gone,
     and the channel numbers from 0 *)
  ignore (Chan.tx_send t ~now:0.1 "d");
  Chan.tx_fence t;
  Alcotest.(check int) "fence forgets the backlog" 0 (Chan.tx_unacked t);
  Alcotest.(check (list (pair int string)))
    "nothing left to retransmit" [] (Chan.tx_due t ~now:10.);
  Alcotest.(check int) "first send after the fence" 0 (Chan.tx_send t ~now:0.2 "e");
  Alcotest.(check (list (pair int string)))
    "the new incarnation gets only what follows" [ (0, "e") ]
    (Chan.tx_reconnect t ~now:0.2 ~rx_expected:0)

(* The ack policy: at once on a duplicate or a gap, else every
   [ack_every] in-order frames or on the tick; one owed ack, never a
   queue. *)
let test_rx_ack_policy () =
  let r = Chan.rx ~ack_every:3 () in
  let feed seq = ignore (Chan.rx_data r ~seq seq) in
  feed 0;
  feed 1;
  Alcotest.(check bool) "two in order: not yet" false (Chan.rx_ack_due r);
  feed 2;
  Alcotest.(check bool) "third in order: due" true (Chan.rx_ack_due r);
  feed 3;
  Alcotest.(check int) "one cumulative ack" 4 (Chan.rx_ack r);
  Alcotest.(check bool) "taken" false (Chan.rx_ack_due r);
  Chan.rx_tick r;
  Alcotest.(check bool) "tick with nothing new" false (Chan.rx_ack_due r);
  feed 4;
  Chan.rx_tick r;
  Alcotest.(check bool) "tick after progress" true (Chan.rx_ack_due r);
  Alcotest.(check int) "tick ack" 5 (Chan.rx_ack r);
  feed 4;
  Alcotest.(check bool) "duplicate: at once" true (Chan.rx_ack_due r);
  ignore (Chan.rx_ack r);
  feed 6;
  Alcotest.(check bool) "gap: at once" true (Chan.rx_ack_due r);
  ignore (Chan.rx_ack r);
  feed 5;
  Alcotest.(check bool) "gap fill: at once" true (Chan.rx_ack_due r);
  Alcotest.(check int) "fill acks both" 7 (Chan.rx_ack r);
  feed 7;
  Chan.rx_reset r;
  Alcotest.(check bool) "reset owes nothing" false (Chan.rx_ack_due r);
  Chan.rx_tick r;
  Alcotest.(check bool) "nor after a tick" false (Chan.rx_ack_due r)

(* ---- one tx/rx pair against a sequential model ---------------------- *)

(* A random schedule for one channel and its peer process. Indices pick
   an in-flight frame (mod the number in flight), so delivering any but
   the oldest is a reorder. *)
type step =
  | Send
  | Deliver of int
  | Drop of int
  | Dup of int
  | Ack of int
  | Ack_drop of int
  | Tick of int  (** advance the clock this many 10 ms *)
  | Reconnect  (** the stream dies and comes back, same processes *)
  | Peer_reboot  (** the receiver comes back as a fresh process *)
  | Sender_reboot  (** the sender comes back as a fresh process *)

let pp_step = function
  | Send -> "send"
  | Deliver i -> Printf.sprintf "deliver %d" i
  | Drop i -> Printf.sprintf "drop %d" i
  | Dup i -> Printf.sprintf "dup %d" i
  | Ack i -> Printf.sprintf "ack %d" i
  | Ack_drop i -> Printf.sprintf "ack-drop %d" i
  | Tick k -> Printf.sprintf "tick %d" k
  | Reconnect -> "reconnect"
  | Peer_reboot -> "peer-reboot"
  | Sender_reboot -> "sender-reboot"

let step_gen =
  QCheck.Gen.(
    let idx = int_bound 7 in
    frequency
      [
        (6, return Send);
        (6, map (fun i -> Deliver i) idx);
        (2, map (fun i -> Drop i) idx);
        (1, map (fun i -> Dup i) idx);
        (4, map (fun i -> Ack i) idx);
        (2, map (fun i -> Ack_drop i) idx);
        (3, map (fun k -> Tick k) (int_range 1 40));
        (1, return Reconnect);
        (1, return Peer_reboot);
        (1, return Sender_reboot);
      ])

let schedule_arb =
  QCheck.make
    ~print:(fun steps -> String.concat "; " (List.map pp_step steps))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 120) step_gen)

(* Remove the [i]-th (mod length) element of a non-empty list. *)
let take i l =
  let i = i mod List.length l in
  (List.nth l i, List.filteri (fun j _ -> j <> i) l)

let rec is_prefix p l =
  match (p, l) with
  | [], _ -> true
  | x :: p', y :: l' -> x = y && is_prefix p' l'
  | _ :: _, [] -> false

(* The model: what the receiver's current incarnation must deliver is
   [epoch] — every message sent since that incarnation began, in send
   order. A reboot of either end starts a new, empty epoch (the fence:
   nothing queued for a dead incarnation reaches the next one); wires of
   the old connection die with it. Exactly-once in order: [got] is a
   prefix of [epoch] after every step. No stall: once the faults stop,
   [got] catches up with all of [epoch]. The receiver acks as [Chan]'s
   policy says, [Tick] driving its tick, and after a tick everything
   delivered is acked; both drivers' policies run. *)
let chan_matches_model =
  QCheck.Test.make ~name:"chan: tx/rx pair = sequential model" ~count:500
    QCheck.(pair (make ~print:string_of_int (Gen.oneofl [ 1; 64 ])) schedule_arb)
    (fun (ack_every, steps) ->
      let tx = ref (Chan.tx ()) and rx = Chan.rx ~ack_every () in
      let now = ref 0. and next = ref 0 in
      let data = ref [] and acks = ref [] in
      let epoch = ref [] and got = ref [] and last_ack = ref 0 in
      let take_ack () =
        last_ack := Chan.rx_ack rx;
        !last_ack
      in
      let ack () = if Chan.rx_ack_due rx then acks := !acks @ [ take_ack () ] in
      let arrive (seq, m) =
        got := !got @ Chan.rx_data rx ~seq m;
        ack ()
      in
      let new_epoch () =
        last_ack := 0;
        data := [];
        acks := [];
        epoch := [];
        got := []
      in
      let apply = function
        | Send ->
            let m = !next in
            incr next;
            let seq = Chan.tx_send !tx ~now:!now m in
            data := !data @ [ (seq, m) ];
            epoch := !epoch @ [ m ]
        | Deliver i when !data <> [] ->
            let f, rest = take i !data in
            data := rest;
            arrive f
        | Drop i when !data <> [] -> data := snd (take i !data)
        | Dup i when !data <> [] -> data := !data @ [ fst (take i !data) ]
        | Ack i when !acks <> [] ->
            let upto, rest = take i !acks in
            acks := rest;
            ignore (Chan.tx_ack !tx ~now:!now ~upto)
        | Ack_drop i when !acks <> [] -> acks := snd (take i !acks)
        | Tick k ->
            now := !now +. (0.01 *. float_of_int k);
            data := !data @ Chan.tx_due !tx ~now:!now;
            Chan.rx_tick rx;
            ack ();
            if !last_ack <> Chan.rx_expected rx then
              QCheck.Test.fail_reportf "a tick left frames %d..%d unacked"
                !last_ack (Chan.rx_expected rx - 1)
        | Reconnect ->
            (* The handshake's [rx_expected] is an ack, taken as one. *)
            data :=
              !data @ Chan.tx_reconnect !tx ~now:!now ~rx_expected:(take_ack ())
        | Peer_reboot ->
            Chan.rx_reset rx;
            Chan.tx_fence !tx;
            new_epoch ()
        | Sender_reboot ->
            tx := Chan.tx ();
            Chan.rx_reset rx;
            new_epoch ()
        | Deliver _ | Drop _ | Dup _ | Ack _ | Ack_drop _ -> ()
      in
      List.iter
        (fun s ->
          apply s;
          if not (is_prefix !got !epoch) then
            QCheck.Test.fail_reportf "after %s: delivered [%s], model [%s]"
              (pp_step s)
              (String.concat ";" (List.map string_of_int !got))
              (String.concat ";" (List.map string_of_int !epoch)))
        steps;
      (* Faults stop: let the timer fire and deliver everything, in
         order, until the sender has nothing left. *)
      let rounds = ref 0 in
      while (Chan.tx_unacked !tx > 0 || !data <> []) && !rounds < 20 do
        incr rounds;
        List.iter arrive !data;
        data := [];
        Chan.rx_tick rx;
        ack ();
        List.iter (fun upto -> ignore (Chan.tx_ack !tx ~now:!now ~upto)) !acks;
        acks := [];
        now := !now +. 3.;
        data := Chan.tx_due !tx ~now:!now
      done;
      if !got <> !epoch || Chan.tx_unacked !tx > 0 then
        QCheck.Test.fail_reportf
          "stalled: delivered %d of %d, %d unacked, %d buffered at the \
           receiver"
          (List.length !got) (List.length !epoch) (Chan.tx_unacked !tx)
          (Chan.rx_buffered rx);
      true)

(* ---- link-fault rates ------------------------------------------------ *)

(* The one rate parser every CLI flag, the dist worker argv and the
   replay file go through: [0, 1) only, and it reads back what the
   printer writes. *)
let test_rate_parser () =
  List.iter
    (fun s ->
      match Chan.rate_of_string s with
      | Ok p -> Alcotest.failf "accepted %S as %g" s p
      | Error _ -> ())
    [ "-0.1"; "1.0"; "nan"; "1.5"; "x" ];
  List.iter
    (fun (s, p) ->
      Alcotest.(check (result (float 0.) string)) s (Ok p)
        (Chan.rate_of_string s))
    [ ("0", 0.); ("0.99", 0.99) ];
  List.iter
    (fun p ->
      Alcotest.(check (result (float 0.) string))
        (Chan.string_of_rate p) (Ok p)
        (Chan.rate_of_string (Chan.string_of_rate p)))
    [ 0.; 0.3; 0.1 +. 0.2; 0.99 ]

let suites =
  [
    (* Named for the dist backend that first grew these machines: the
       dist-smoke CI job selects suites by the [dist_] prefix. *)
    ( "dist_transport",
      [
        Alcotest.test_case "rx order, dups, gaps, reset" `Quick test_rx_order;
        Alcotest.test_case "tx cumulative ack trim" `Quick test_tx_ack_trim;
        Alcotest.test_case "tx retransmit backoff" `Quick test_tx_backoff;
        Alcotest.test_case "tx reconnect resync" `Quick test_tx_reconnect;
        Alcotest.test_case "rx ack policy" `Quick test_rx_ack_policy;
        QCheck_alcotest.to_alcotest chan_matches_model;
        Alcotest.test_case "link-fault rate parser" `Quick test_rate_parser;
      ] );
  ]
