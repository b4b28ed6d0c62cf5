(* Sender side of one ordered channel. [unacked] holds (seq, payload)
   in increasing, contiguous seq order; the timer is a deadline the
   caller turns into an engine event or polls. *)
type 'm tx = {
  mutable next_seq : int;
  mutable unacked : (int * 'm) Queue.t;
  rto0 : float;
  rto_max : float;
  mutable rto : float;
  mutable deadline : float;  (* next retransmission time; infinity = idle *)
}

let tx ?(rto0 = 0.1) ?(rto_max = 2.0) () =
  assert (rto0 > 0. && rto_max >= rto0);
  {
    next_seq = 0;
    unacked = Queue.create ();
    rto0;
    rto_max;
    rto = rto0;
    deadline = infinity;
  }

let tx_send t ~now m =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Queue.push (seq, m) t.unacked;
  if t.deadline = infinity then t.deadline <- now +. t.rto;
  seq

let tx_ack t ~now ~upto =
  let progressed = ref false in
  while
    (not (Queue.is_empty t.unacked)) && fst (Queue.peek t.unacked) < upto
  do
    ignore (Queue.pop t.unacked);
    progressed := true
  done;
  if !progressed then begin
    t.rto <- t.rto0;
    t.deadline <-
      (if Queue.is_empty t.unacked then infinity else now +. t.rto)
  end;
  !progressed

let tx_due t ~now =
  if Queue.is_empty t.unacked || now < t.deadline then []
  else begin
    t.rto <- Float.min (t.rto *. 2.) t.rto_max;
    t.deadline <- now +. t.rto;
    List.of_seq (Queue.to_seq t.unacked)
  end

let tx_reconnect t ~now ~rx_expected =
  (* Trim what the peer already delivered — its ack may have died with
     the old connection. *)
  ignore (tx_ack t ~now ~upto:rx_expected : bool);
  t.rto <- t.rto0;
  t.deadline <-
    (if Queue.is_empty t.unacked then infinity else now +. t.rto);
  List.of_seq (Queue.to_seq t.unacked)

let tx_fence t =
  Queue.clear t.unacked;
  t.next_seq <- 0;
  t.rto <- t.rto0;
  t.deadline <- infinity

let tx_unacked t = Queue.length t.unacked
let tx_next_seq t = t.next_seq
let tx_rto t = t.rto

(* Receiver side: [expected] is the next in-order sequence number;
   later frames wait in [ooo]. [acked] is the last ack taken. *)
type 'm rx = {
  mutable expected : int;
  ooo : (int, 'm) Hashtbl.t;
  ack_every : int;
  mutable acked : int;
  mutable due : bool;
}

let rx ~ack_every () =
  assert (ack_every >= 1);
  { expected = 0; ooo = Hashtbl.create 8; ack_every; acked = 0; due = false }

let rx_data t ~seq m =
  let next = seq = t.expected && Hashtbl.length t.ooo = 0 in
  let delivered = ref [] in
  if seq >= t.expected && not (Hashtbl.mem t.ooo seq) then begin
    Hashtbl.replace t.ooo seq m;
    while Hashtbl.mem t.ooo t.expected do
      delivered := Hashtbl.find t.ooo t.expected :: !delivered;
      Hashtbl.remove t.ooo t.expected;
      t.expected <- t.expected + 1
    done
  end;
  if (not next) || t.expected - t.acked >= t.ack_every then t.due <- true;
  List.rev !delivered

let rx_tick t = if t.expected > t.acked then t.due <- true
let rx_ack_due t = t.due

let rx_ack t =
  t.acked <- t.expected;
  t.due <- false;
  t.acked

let rx_expected t = t.expected
let rx_buffered t = Hashtbl.length t.ooo

let rx_reset t =
  t.expected <- 0;
  Hashtbl.reset t.ooo;
  t.acked <- 0;
  t.due <- false

type faults = { drop : float; dup : float; reorder : float }

let no_faults = { drop = 0.; dup = 0.; reorder = 0. }

let rate_ok p = 0. <= p && p < 1.

let validate f =
  if rate_ok f.drop && rate_ok f.dup && rate_ok f.reorder then Ok f
  else Error "fault probabilities must lie in [0, 1)"

let rate_of_string s =
  match float_of_string_opt (String.trim s) with
  | None -> Error (Printf.sprintf "%S is not a number" s)
  | Some p ->
      Result.map (fun f -> f.drop) (validate { no_faults with drop = p })

let string_of_rate p =
  let s = Printf.sprintf "%.15g" p in
  if float_of_string s = p then s else Printf.sprintf "%.17g" p
