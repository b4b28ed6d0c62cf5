(* The dist backend: wire-codec fuzz (round-trip + garbage rejection,
   mirroring test_persist's torn-record matrix) and in-process
   end-to-end runs — a Local cluster over real unix sockets,
   closed-loop clients, and the merged history fed to the same
   A0–A4 / S1–S3 checkers the simulator runs use. The channel state
   machines it drives are tested in test_chan.ml. *)

module W = Dist.Wire
module LC = Aso_core.Lattice_core

let qcase t = QCheck_alcotest.to_alcotest t

(* ---- generators ----------------------------------------------------- *)

(* Values cross the wire zigzag-varint encoded; the interesting inputs
   are the sign boundary and the 63-bit extremes. *)
let wild_int =
  QCheck.Gen.(
    frequency
      [
        (4, small_signed_int);
        (2, int_range (-1_000_000) 1_000_000);
        (1, return 0);
        (1, return (-1));
        (1, return max_int);
        (1, return min_int);
      ])

let nat_gen = QCheck.Gen.(frequency [ (4, small_nat); (1, int_range 0 (1 lsl 40)) ])

let ts_gen =
  QCheck.Gen.(
    map2
      (fun tag writer -> Timestamp.make ~tag ~writer)
      nat_gen (int_range 0 8))

let msg_gen : W.msg QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map2 (fun ts value -> LC.Msg.Value { ts; value }) ts_gen wild_int;
        map (fun req -> LC.Msg.Read_tag { req }) nat_gen;
        map2 (fun req tag -> LC.Msg.Read_ack { req; tag }) nat_gen nat_gen;
        map2 (fun req tag -> LC.Msg.Write_tag { req; tag }) nat_gen nat_gen;
        map (fun req -> LC.Msg.Write_ack { req }) nat_gen;
        map (fun tag -> LC.Msg.Echo_tag { tag }) nat_gen;
        map (fun tag -> LC.Msg.Good_la { tag }) nat_gen;
        map (fun req -> LC.Msg.Recover_pull { req }) nat_gen;
        map3
          (fun req entries max_tag ->
            LC.Msg.Recover_push { req; entries; max_tag })
          nat_gen
          (list_size (int_range 0 6) (pair ts_gen wild_int))
          nat_gen;
      ])

let result_gen =
  QCheck.Gen.(
    oneof
      [
        return W.R_update_done;
        map
          (fun l -> W.R_scan (Array.of_list l))
          (list_size (int_range 0 9) (opt wild_int));
      ])

let frame_gen : W.frame QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map2 (fun src boot -> W.Hello { src; boot }) (int_range 0 8) nat_gen;
        map2
          (fun boot rx_expected -> W.Welcome { boot; rx_expected })
          nat_gen nat_gen;
        map2 (fun seq msg -> W.Data { seq; msg }) nat_gen msg_gen;
        map (fun upto -> W.Ack { upto }) nat_gen;
        map2
          (fun rid op -> W.Req { rid; op })
          nat_gen
          (oneof [ map (fun v -> W.Op_update v) wild_int; return W.Op_scan ]);
        map3
          (fun rid (t_inv, t_resp) result ->
            W.Resp { rid; t_inv; t_resp; result })
          nat_gen (pair nat_gen nat_gen) result_gen;
      ])

let frame_kind = function
  | W.Hello _ -> "Hello"
  | W.Welcome _ -> "Welcome"
  | W.Data _ -> "Data"
  | W.Ack _ -> "Ack"
  | W.Req _ -> "Req"
  | W.Resp _ -> "Resp"

let print_frame f =
  let s = W.encode f in
  Printf.sprintf "%s[%d bytes]" (frame_kind f) (String.length s)

let frame_arb = QCheck.make ~print:print_frame frame_gen

(* ---- round-trip ------------------------------------------------------ *)

let prop_roundtrip f =
  let s = W.encode f in
  match W.decode s ~pos:0 with
  | Ok (f', stop) -> f' = f && stop = String.length s
  | Error _ -> false

let wire_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"wire encode/decode round-trip"
    frame_arb prop_roundtrip

(* [frames] encoded back to back at offset [off] of a buffer whose
   other bytes are [junk]: the buffer and the offset past the last. *)
let encode_dirty ~off ~junk frames =
  let len = List.fold_left (fun k f -> k + String.length (W.encode f)) off frames in
  let b = Bytes.make (len + 16) junk in
  (b, List.fold_left (fun pos f -> W.encode_into b ~pos f) off frames)

let dirty_gen = QCheck.Gen.(pair (int_range 1 40) char)

(* Both through [decode] over [encode]'s strings, and through
   [decode_bytes] over frames encoded at an offset into a dirty buffer:
   the encoder writes exactly [encode]'s bytes, nothing before the offset,
   and the walk stops at the end of the second frame, not of the
   buffer. *)
let wire_stream =
  QCheck.Test.make ~count:500 ~name:"wire decode walks concatenated frames"
    (QCheck.triple frame_arb frame_arb (QCheck.make dirty_gen))
    (fun (a, b, (off, junk)) ->
      let s = W.encode a ^ W.encode b in
      let from_string =
        match W.decode s ~pos:0 with
        | Error _ -> false
        | Ok (a', p) -> (
            a' = a
            &&
            match W.decode s ~pos:p with
            | Ok (b', q) -> b' = b && q = String.length s
            | Error _ -> false)
      in
      let buf, stop = encode_dirty ~off ~junk [ a; b ] in
      let walk pos = W.decode_bytes buf ~pos ~len:(stop - pos) in
      from_string
      && stop = off + String.length s
      && Bytes.sub_string buf off (stop - off) = s
      && Bytes.sub_string buf 0 off = String.make off junk
      &&
      match walk off with
      | Error _ -> false
      | Ok (a', p) -> (
          a' = a
          &&
          match walk p with Ok (b', q) -> b' = b && q = stop | Error _ -> false))

(* The streaming decoder ({!Dist.Conn.reader}, shared by the node loop
   and the client): a frame list encoded at an offset into a dirty
   buffer, as the node loop encodes into an out-buffer, and written
   through a socketpair in chunks of random size, 1 byte up to 64 KiB,
   reads back whole and in order. *)
let wire_socket_chunks =
  let chunks =
    QCheck.make
      ~print:QCheck.Print.(list int)
      QCheck.Gen.(
        list_size (int_range 1 20) (oneof [ int_range 1 16; int_range 1 65536 ]))
  in
  QCheck.Test.make ~count:100 ~name:"wire reader reassembles socket chunks"
    (QCheck.triple
       (QCheck.list_of_size QCheck.Gen.(int_range 0 300) frame_arb)
       chunks (QCheck.make dirty_gen))
    (fun (frames, chunks, (off, junk)) ->
      let buf, stop = encode_dirty ~off ~junk frames in
      let bytes = Bytes.sub_string buf off (stop - off) in
      let chunks = Array.of_list chunks in
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let writer =
        Thread.create
          (fun () ->
            let rec go off i =
              if off < String.length bytes then begin
                let k =
                  min chunks.(i mod Array.length chunks) (String.length bytes - off)
                in
                ignore (Unix.write_substring a bytes off k);
                go (off + k) (i + 1)
              end
            in
            go 0 0;
            Unix.close a)
          ()
      in
      let reader = Dist.Conn.reader b in
      let rec read acc =
        match Dist.Conn.read_frame reader with
        | Ok f -> read (f :: acc)
        | Error `Eof -> List.rev acc
        | Error (`Err e) -> Alcotest.failf "undecodable: %a" W.pp_error e
      in
      let got = read [] in
      Thread.join writer;
      Unix.close b;
      got = frames)

(* ---- version 1, byte for byte -------------------------------------- *)

(* One frame of each kind, with every message variant under [Data] and
   both client ops and results, against pinned bytes: a frame whose
   bytes change needs a new wire version. *)
let golden =
  let ts tag writer = Timestamp.make ~tag ~writer in
  let data seq msg = W.Data { seq; msg } in
  [
    ( W.Hello { src = 2; boot = 123456789 },
      "4157010600000027262d300104aab4de75" );
    ( W.Welcome { boot = 987654321; rx_expected = 300 },
      "4157010800000012d3f35102e2a2f3ad07d804" );
    ( data 70 (LC.Msg.Value { ts = ts 5 1; value = -42 }),
      "41570107000000d84996c4038c01000a0253" );
    ( data 1
        (LC.Msg.Recover_push
           {
             req = 9;
             entries = [ (ts 3 0, 7); (ts 4 2, -1); (ts 200 1, max_int) ];
             max_tag = 200;
           }),
      "415701190000001de2b3b00302081290030606000e080401900302feffffffffffffff7f" );
    (data 2 (LC.Msg.Read_tag { req = 5 }), "4157010400000049725fb70304010a");
    ( data 3 (LC.Msg.Read_ack { req = 5; tag = 11 }),
      "41570105000000b224c5f00306020a16" );
    ( data 4 (LC.Msg.Write_tag { req = 6; tag = 12 }),
      "415701050000007b6c3d4b0308030c18" );
    (data 5 (LC.Msg.Write_ack { req = 6 }), "41570104000000d85734b1030a040c");
    (data 6 (LC.Msg.Echo_tag { tag = 13 }), "41570104000000750f9f56030c051a");
    (data 7 (LC.Msg.Good_la { tag = 14 }), "415701040000005e2dc0b8030e061c");
    (data 8 (LC.Msg.Recover_pull { req = 15 }), "41570104000000f7914ae90310071e");
    (W.Ack { upto = 64 }, "4157010300000078f4d84c048001");
    ( W.Req { rid = 17; op = W.Op_update min_int },
      "4157010c000000867a9a2b052201ffffffffffffffff7f" );
    (W.Req { rid = 18; op = W.Op_scan }, "4157010300000004ae8868052400");
    ( W.Resp { rid = 18; t_inv = 5; t_resp = 6; result = W.R_update_done },
      "4157010500000013785dd106240a0c00" );
    ( W.Resp
        {
          rid = 17;
          t_inv = 1_000_000_007;
          t_resp = 1_000_050_011;
          result = W.R_scan [| Some 1; None; Some (-300) |];
        },
      "41570114000000ca658acb06228ea8d6b907b6b5dcb907010601020001d704" );
  ]

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let unhex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_golden () =
  List.iter
    (fun (f, want) ->
      let name = frame_kind f in
      Alcotest.(check string) (name ^ " bytes") want (hex (W.encode f));
      (* [Net] grows its out-buffer when a frame does not fit: the
         encoder must say so, and not write before its offset. *)
      let len = String.length want / 2 in
      let b = Bytes.make (len + 2) '.' in
      Alcotest.(check int) (name ^ " fits exactly") (len + 1) (W.encode_into b ~pos:1 f);
      let short = Bytes.make (len + 1) '.' in
      (match W.encode_into short ~pos:2 f with
      | _ -> Alcotest.failf "%s: encoded past the end of the buffer" name
      | exception Invalid_argument _ -> ());
      Alcotest.(check char) (name ^ " before pos untouched") '.' (Bytes.get short 1);
      match W.decode (unhex want) ~pos:0 with
      | Ok (f', _) when f' = f -> ()
      | _ -> Alcotest.failf "%s: the pinned bytes do not decode to the frame" name)
    golden

(* ---- garbage rejection ---------------------------------------------- *)

(* Every proper prefix of a valid frame is [Truncated] — the streaming
   reader's "wait for more bytes" signal, never a mis-parse. *)
let prop_torn f =
  let s = W.encode f in
  let ok = ref true in
  for cut = 0 to String.length s - 1 do
    match W.decode (String.sub s 0 cut) ~pos:0 with
    | Error W.Truncated -> ()
    | Ok _ | Error _ -> ok := false
  done;
  !ok

let wire_torn =
  QCheck.Test.make ~count:500 ~name:"wire torn frame reads as Truncated"
    frame_arb prop_torn

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
  Bytes.to_string b

(* A flipped payload byte never survives: the checksum was computed over
   the original bytes. *)
let prop_flip_payload f =
  let s = W.encode f in
  if String.length s = W.header_len then QCheck.assume_fail ()
  else
    let ok = ref true in
    for i = W.header_len to String.length s - 1 do
      match W.decode (flip s i) ~pos:0 with
      | Error W.Bad_checksum -> ()
      | Ok _ | Error _ -> ok := false
    done;
    !ok

let wire_flip_payload =
  QCheck.Test.make ~count:500 ~name:"wire payload bit-flip fails checksum"
    frame_arb prop_flip_payload

let wire_flip_checksum =
  QCheck.Test.make ~count:500
    ~name:"wire checksum-field bit-flip fails checksum" frame_arb (fun f ->
      let s = W.encode f in
      let ok = ref true in
      for i = 7 to 10 do
        match W.decode (flip s i) ~pos:0 with
        | Error W.Bad_checksum -> ()
        | Ok _ | Error _ -> ok := false
      done;
      !ok)

(* Manual header assembly, for frames [encode] refuses to produce. *)
let reframe payload =
  let n = String.length payload in
  let b = Bytes.create (W.header_len + n) in
  Bytes.set b 0 'A';
  Bytes.set b 1 'W';
  Bytes.set b 2 (Char.chr W.version);
  Bytes.set_int32_le b 3 (Int32.of_int n);
  Bytes.set_int32_le b 7 (Int32.of_int (W.checksum payload));
  Bytes.blit_string payload 0 b W.header_len n;
  Bytes.to_string b

let check_err name expected got =
  match got with
  | Error e when e = expected -> ()
  | Ok _ -> Alcotest.failf "%s: decoded Ok" name
  | Error e ->
      Alcotest.failf "%s: expected %a, got %a" name W.pp_error expected
        W.pp_error e

let test_header_rejection () =
  let s = W.encode (W.Ack { upto = 42 }) in
  check_err "corrupt magic byte 0" W.Bad_magic (W.decode (flip s 0) ~pos:0);
  check_err "corrupt magic byte 1" W.Bad_magic (W.decode (flip s 1) ~pos:0);
  (let v = W.decode (flip s 2) ~pos:0 in
   match v with
   | Error (W.Bad_version got) when got <> W.version -> ()
   | _ -> Alcotest.fail "version bump not rejected");
  (* length field claiming more than the sanity cap *)
  let b = Bytes.of_string s in
  Bytes.set_int32_le b 3 (Int32.of_int (W.max_payload + 1));
  (match W.decode (Bytes.to_string b) ~pos:0 with
  | Error (W.Oversize n) when n = W.max_payload + 1 -> ()
  | _ -> Alcotest.fail "oversize length not rejected");
  (* checksummed frame whose payload has trailing garbage: the parser
     must consume the payload exactly *)
  let payload =
    let s = W.encode (W.Ack { upto = 7 }) in
    String.sub s W.header_len (String.length s - W.header_len) ^ "\x00"
  in
  check_err "trailing payload garbage" W.Bad_payload
    (W.decode (reframe payload) ~pos:0);
  (* empty payload: no frame kind byte at all *)
  check_err "empty payload" W.Bad_payload (W.decode (reframe "") ~pos:0);
  (* unknown frame kind *)
  check_err "unknown frame kind" W.Bad_payload
    (W.decode (reframe "\xff") ~pos:0)

(* Arbitrary bytes with a well-formed header must decode to *something*
   (almost always [Bad_payload]) without raising. *)
let wire_garbage_no_crash =
  QCheck.Test.make ~count:1000 ~name:"wire garbage payload never raises"
    QCheck.(string_of_size Gen.(int_range 0 64))
    (fun payload ->
      (match W.decode (reframe payload) ~pos:0 with
      | Ok _ | Error _ -> ());
      (* and raw garbage without the header courtesy *)
      (match W.decode payload ~pos:0 with Ok _ | Error _ -> ());
      true)

(* ---- end-to-end over real sockets ----------------------------------- *)

(* Remove [path] and everything under it, as far as it can: cleanup
   must not turn a test's own verdict into [Fun.Finally_raised]. *)
let rec rm_rf path =
  try
    match (Unix.lstat path).st_kind with
    | Unix.S_DIR ->
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
    | _ -> Unix.unlink path
  with Unix.Unix_error _ | Sys_error _ -> ()

(* [f dir] with [dir] a fresh path in the temp dir for one test's
   sockets and WALs (not created; [Dist.Local.start] and [sock_eps]
   make it). The directory is removed when [f] returns or raises. *)
let with_dir name f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "aso-dist-%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* One counter summed over the nodes of a cluster. *)
let count cluster n name =
  let total = ref 0 in
  for i = 0 to n - 1 do
    let snap = Obs.Metrics.snapshot (Dist.Net.metrics (Dist.Local.net cluster i)) in
    match Obs.Metrics.find_count snap name with
    | Some c -> total := !total + c
    | None -> ()
  done;
  !total

(* One closed-loop window (30% scans) over an in-process cluster: the
   driver's report, the merged history and the nodes' counter sums. *)
let run_cluster ?chaos ?seed ?wal ?faults ~name ~algo ~n ~clients ~secs () =
  with_dir name @@ fun dir ->
  let cluster = Dist.Local.start ?chaos ?seed ?wal ~algo ~n ~f:1 ~dir () in
  Fun.protect
    ~finally:(fun () -> Dist.Local.stop cluster)
    (fun () ->
      let r =
        Load.run ?faults
          (Dist.Local.deployment cluster)
          ~clients ~secs ~scan_fraction:0.3 ~seed:42
      in
      (r, Dist.Local.history cluster, count cluster n))

let completed (r : Load.report) = r.completed_updates + r.completed_scans

let test_e2e_eq_aso () =
  let r, h, _ =
    run_cluster ~name:"eq" ~algo:Rt.Service.Eq_aso ~n:3 ~clients:4 ~secs:0.4 ()
  in
  Alcotest.(check bool) "made progress" true (completed r > 20);
  match Checker.Feed.check ~mode:Obs.Monitor.Atomic ~n:3 h with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "socket run not linearizable: %a" Obs.Monitor.pp_violation
        v

let test_e2e_chaos () =
  let chaos = { Chan.drop = 0.12; dup = 0.05; reorder = 0.3 } in
  let r, h, count =
    run_cluster ~chaos ~seed:7 ~name:"chaos" ~algo:Rt.Service.Eq_aso ~n:3
      ~clients:3 ~secs:1.2 ()
  in
  Alcotest.(check bool) "progress under chaos" true (completed r > 0);
  Alcotest.(check bool) "chaos forced retransmissions" true
    (count "dist.retransmits" > 0);
  match Checker.Feed.check ~mode:Obs.Monitor.Atomic ~n:3 h with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "chaos run not linearizable: %a" Obs.Monitor.pp_violation v

(* Also the wire accounting: every first transmission counts once in
   [dist.data_sent], and on clean links cumulative acks are coalesced
   to far fewer than one per frame. *)
let test_e2e_sso () =
  let r, h, count =
    run_cluster ~name:"sso" ~algo:Rt.Service.Sso_fast_scan ~n:3 ~clients:2
      ~secs:0.25 ()
  in
  Alcotest.(check bool) "made progress" true (completed r > 10);
  let data = count "dist.data_sent" and acks = count "dist.acks_sent" in
  Alcotest.(check bool) "data frames counted" true (data > 0);
  if acks > data / 4 then
    Alcotest.failf "%d acks for %d data frames: acks not coalesced" acks data;
  match Checker.Feed.check ~mode:Obs.Monitor.Sequential ~n:3 h with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "sso socket run not sequentially consistent: %a"
        Obs.Monitor.pp_violation v

(* The in-process adapter's fault path: node 2 stops mid-run, its
   client fails over, the node restarts from its WAL, and the client
   goes back to it. The merged history must still linearize. *)
let test_e2e_crash_restart () =
  let r, h, _ =
    run_cluster ~wal:true
      ~faults:(Load.faults ~n:3 ~f:1 ~crash_at:0.2 ~restart_at:0.4 [ 2 ])
      ~name:"restart" ~algo:Rt.Service.Eq_aso ~n:3 ~clients:3 ~secs:0.8 ()
  in
  Alcotest.(check (list int)) "node 2 restarted" [ 2 ] r.restarted;
  (* Node 2's completed ops, in time: a gap of at least the 0.2 s down
     window, with ops on both sides of it. *)
  let at2 =
    List.filter_map
      (fun (op : History.op) -> if op.node = 2 then Some op.inv else None)
      (History.completed h)
    |> List.sort compare
  in
  let rec gap = function
    | a :: (b :: _ as rest) -> b -. a >= 0.15 || gap rest
    | _ -> false
  in
  Alcotest.(check bool) "node 2 served before and after its down window"
    true (gap at2);
  match Checker.Feed.check ~mode:Obs.Monitor.Atomic ~n:3 h with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "crash-restart run not linearizable: %a"
        Obs.Monitor.pp_violation v

(* Each node rolls its own fault dice from (seed, id): with one record
   and one seed for the whole deployment, node 0's and node 1's verdict
   streams differ, and rebuilding a node reproduces its stream. *)
let test_fault_dice_per_node () =
  let eps =
    Array.init 2 (fun i -> Dist.Conn.Unix_ep (Printf.sprintf "dice-%d.sock" i))
  in
  let faults = { Chan.drop = 0.3; dup = 0.2; reorder = 0.3 } in
  let verdicts ?faults me =
    let net = Dist.Net.create ?faults ~seed:7 ~me ~eps () in
    List.init 64 (fun _ -> Dist.Net.judge net)
  in
  Alcotest.(check bool) "nodes draw different verdicts" true
    (verdicts ~faults 0 <> verdicts ~faults 1);
  Alcotest.(check bool) "a node reproduces its verdicts" true
    (verdicts ~faults 1 = verdicts ~faults 1);
  Alcotest.(check bool) "no faults, no dice" true
    (List.for_all (fun v -> v = Dist.Net.Pass) (verdicts 0))

(* [n] unix-socket endpoints in directory [dir], which this creates. *)
let sock_eps dir n =
  Unix.mkdir dir 0o755;
  Array.init n (fun i ->
      Dist.Conn.Unix_ep (Filename.concat dir (Printf.sprintf "n%d.sock" i)))

(* Run node [net]'s loop on a thread of its own; the returned cleanup
   stops it and closes its sockets. *)
let spawn_loop net =
  Dist.Net.start net;
  let loop = Thread.create Dist.Net.run net in
  fun () ->
    Dist.Net.request_stop net;
    Thread.join loop;
    Dist.Net.stop net

(* A peer that stops reading must not stall the node's thread: node 0
   sends ~2 MB (far over a socket buffer) to a node 1 played by hand,
   which answers the handshake and then reads nothing. The first
   message alone is larger than the socket buffer, so the socket takes
   only part of it and the loop must finish the rest. Every send must
   return; once drained, the stream must be whole frames carrying the
   messages in order. *)
let test_stalled_peer () =
  with_dir "stall" @@ fun dir ->
  let eps = sock_eps dir 2 in
  let listener = Dist.Conn.listen eps.(1) in
  let net = Dist.Net.create ~me:0 ~eps () in
  let fd = ref None in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let stop_loop = spawn_loop net in
  let cleanup () =
    (* Listener first, so node 0 cannot reconnect into a handshake that
       nobody answers. *)
    close listener;
    Option.iter close !fd;
    stop_loop ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let sock = Dist.Conn.accept eps.(1) listener in
  fd := Some sock;
  let reader = Dist.Conn.reader sock in
  (match Dist.Conn.read_frame reader with
  | Ok (W.Hello { src = 0; _ }) -> ()
  | _ -> Alcotest.fail "expected node 0's Hello");
  if not (Dist.Conn.write_frame sock (W.Welcome { boot = 1; rx_expected = 0 }))
  then Alcotest.fail "Welcome not written";
  let value i =
    LC.Msg.Value { ts = Timestamp.make ~tag:(i + 1) ~writer:0; value = i }
  in
  let big =
    LC.Msg.Recover_push
      {
        req = 0;
        entries =
          List.init 100_000 (fun i -> (Timestamp.make ~tag:(i + 1) ~writer:0, i));
        max_tag = 100_000;
      }
  in
  let msgs = big :: List.init 100_000 value in
  let k = List.length msgs in
  let send = (Dist.Net.backend net).send in
  let sent = Atomic.make false in
  Dist.Net.post_work net (fun () ->
      List.iter (send ~src:0 ~dst:1) msgs;
      Atomic.set sent true);
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (Atomic.get sent)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if not (Atomic.get sent) then begin
    (* Free a node stuck in [write] before failing. *)
    close listener;
    Unix.shutdown sock Unix.SHUTDOWN_ALL;
    Alcotest.fail "sends blocked on a peer that stopped reading"
  end;
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 5.;
  let rx = Chan.rx ~ack_every:1 () in
  let got = ref [] in
  while Chan.rx_expected rx < k do
    match Dist.Conn.read_frame reader with
    | Ok (W.Data { seq; msg }) ->
        got := List.rev_append (Chan.rx_data rx ~seq msg) !got
    | Ok f -> Alcotest.failf "unexpected %s frame" (frame_kind f)
    | Error `Eof ->
        Alcotest.failf "stream stopped after %d of %d messages"
          (Chan.rx_expected rx) k
    | Error (`Err e) ->
        Alcotest.failf "undecodable frame after %d messages: %a"
          (Chan.rx_expected rx) W.pp_error e
  done;
  Alcotest.(check bool) "messages in order" true (List.rev !got = msgs)

(* The ack direction: node 0's acks to a peer that stops reading them
   must stop neither node 0 reading that peer nor the 20 ms tick, which
   acks every other peer. Node 1, played by hand, floods node 0
   with duplicates (each acked at once) and never reads its acks; the
   flood must be read to the end. Then node 1 sends one frame that
   only the timer acks, and node 2, also by hand, sends one in-order
   frame: the timer must still ack node 2. *)
let test_stalled_ack_reader () =
  with_dir "stall-ack" @@ fun dir ->
  let eps = sock_eps dir 3 in
  let net = Dist.Net.create ~me:0 ~eps () in
  let socks = ref [] in
  let stop_loop = spawn_loop net in
  let cleanup () =
    List.iter
      (fun fd ->
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
      !socks;
    stop_loop ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let join src =
    let rec dial tries =
      match Dist.Conn.connect eps.(0) with
      | Ok fd -> fd
      | Error _ when tries > 0 ->
          Thread.delay 0.01;
          dial (tries - 1)
      | Error e -> Alcotest.failf "connect: %s" (Printexc.to_string e)
    in
    let fd = dial 100 in
    socks := fd :: !socks;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.;
    let reader = Dist.Conn.reader fd in
    if not (Dist.Conn.write_frame fd (W.Hello { src; boot = 1 })) then
      Alcotest.fail "Hello not written";
    (match Dist.Conn.read_frame reader with
    | Ok (W.Welcome { rx_expected = 0; _ }) -> ()
    | _ -> Alcotest.failf "node %d: expected a fresh Welcome" src);
    (fd, reader)
  in
  let data seq = W.Data { seq; msg = LC.Msg.Echo_tag { tag = seq } } in
  let fd1, _ = join 1 in
  let flooded = Atomic.make false in
  let flood =
    Thread.create
      (fun () ->
        if Dist.Conn.write_frame fd1 (data 0) then begin
          let rec go i =
            i = 0 || (Dist.Conn.write_frame fd1 (data 0) && go (i - 1))
          in
          if go 100_000 then Atomic.set flooded true
        end)
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (Atomic.get flooded)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if not (Atomic.get flooded) then begin
    (* Free a flood stuck in [write] before failing. *)
    Unix.shutdown fd1 Unix.SHUTDOWN_ALL;
    Thread.join flood;
    Alcotest.fail "node 0 stopped reading: an ack write blocked"
  end;
  Thread.join flood;
  if not (Dist.Conn.write_frame fd1 (data 1)) then
    Alcotest.fail "node 1's in-order frame not written";
  Thread.delay 0.1;
  let fd2, reader2 = join 2 in
  if not (Dist.Conn.write_frame fd2 (data 0)) then
    Alcotest.fail "node 2's frame not written";
  match Dist.Conn.read_frame reader2 with
  | Ok (W.Ack { upto = 1 }) -> ()
  | Ok f -> Alcotest.failf "node 2 got %s, expected Ack 1" (frame_kind f)
  | Error _ -> Alcotest.fail "node 2 never acked: the timer is stuck"

(* Nagle's algorithm would hold each small frame for the peer's delayed
   TCP ACK: both ends of a TCP connection disable it, the dialled one
   ([Conn.connect]) and the accepted one ([Conn.accept], which
   [Net]'s listener uses). *)
let test_tcp_nodelay () =
  let listener = Dist.Conn.listen (Dist.Conn.Tcp_ep ("127.0.0.1", 0)) in
  Fun.protect ~finally:(fun () -> Unix.close listener) @@ fun () ->
  let ep =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, port) -> Dist.Conn.Tcp_ep ("127.0.0.1", port)
    | Unix.ADDR_UNIX _ -> Alcotest.fail "not a TCP listener"
  in
  match Dist.Conn.connect ep with
  | Error e -> Alcotest.failf "connect: %s" (Printexc.to_string e)
  | Ok dialled ->
      let accepted = Dist.Conn.accept ep listener in
      let nodelay fd = Unix.getsockopt fd Unix.TCP_NODELAY in
      Alcotest.(check bool) "dialled socket" true (nodelay dialled);
      Alcotest.(check bool) "accepted socket" true (nodelay accepted);
      Unix.close dialled;
      Unix.close accepted

(* One thread per node: a three-node in-process cluster that has served
   an update adds at most one thread per node, plus OCaml's tick thread
   if these are the process's first threads. *)
let test_thread_count () =
  if not (Sys.file_exists "/proc/self/task") then Alcotest.skip ();
  let tasks () = Array.length (Sys.readdir "/proc/self/task") in
  let before = tasks () in
  with_dir "threads" @@ fun dir ->
  let cluster = Dist.Local.start ~algo:Rt.Service.Eq_aso ~n:3 ~f:1 ~dir () in
  Fun.protect ~finally:(fun () -> Dist.Local.stop cluster) @@ fun () ->
  (match
     Dist.Client.connect (Dist.Conn.Unix_ep (Filename.concat dir "node-0.sock"))
   with
  | None -> Alcotest.fail "node 0 unreachable"
  | Some c ->
      let r = Dist.Client.update c 1 in
      Dist.Client.close c;
      if r = Error () then Alcotest.fail "update failed");
  let added = tasks () - before in
  if added > 3 + 1 then Alcotest.failf "%d threads for 3 nodes" added

(* A client that pipelines requests and reads none of its replies must
   not stall the node for everyone else: a raw socket sends node 0 100k
   scans and reads nothing, and a normal client of node 0 must still
   complete an update and a scan within 5 s. *)
let test_client_reads_nothing () =
  with_dir "deaf-client" @@ fun dir ->
  let cluster = Dist.Local.start ~algo:Rt.Service.Eq_aso ~n:3 ~f:1 ~dir () in
  let ep = Dist.Conn.Unix_ep (Filename.concat dir "node-0.sock") in
  let raw =
    match Dist.Conn.connect ep with
    | Ok fd -> fd
    | Error e -> Alcotest.failf "connect: %s" (Printexc.to_string e)
  in
  let reqs =
    String.concat ""
      (List.init 100_000 (fun rid -> W.encode (W.Req { rid; op = W.Op_scan })))
  in
  let flood =
    Thread.create
      (fun () ->
        try ignore (Unix.write_substring raw reqs 0 (String.length reqs))
        with Unix.Unix_error _ -> ())
      ()
  in
  let cleanup () =
    (* Free a flood stuck in [write] first. *)
    (try Unix.shutdown raw Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    Thread.join flood;
    Unix.close raw;
    Dist.Local.stop cluster
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Thread.delay 0.2;
  let t0 = Unix.gettimeofday () in
  match Dist.Client.connect ~rcv_timeout:5. ep with
  | None -> Alcotest.fail "node 0 unreachable"
  | Some c ->
      Fun.protect ~finally:(fun () -> Dist.Client.close c) @@ fun () ->
      if Dist.Client.update c 7 = Error () then
        Alcotest.fail "update stalled behind a client that reads nothing";
      (match Dist.Client.scan c with
      | Ok _ -> ()
      | Error () -> Alcotest.fail "scan stalled behind a client that reads nothing");
      let dt = Unix.gettimeofday () -. t0 in
      if dt > 5. then Alcotest.failf "update + scan took %.2f s" dt

(* The read rule under deferred writes: a client that pipelines ten
   requests in one write, so that all of them sit in the node's decoder
   at once, gets all ten replies, in order. The node reads the next one
   only once the previous reply has been written, and must not wait for
   bytes that already arrived. *)
let test_client_pipelines () =
  with_dir "pipeline" @@ fun dir ->
  let cluster = Dist.Local.start ~algo:Rt.Service.Eq_aso ~n:3 ~f:1 ~dir () in
  Fun.protect ~finally:(fun () -> Dist.Local.stop cluster) @@ fun () ->
  let ep = Dist.Conn.Unix_ep (Filename.concat dir "node-0.sock") in
  let fd =
    match Dist.Conn.connect ep with
    | Ok fd -> fd
    | Error e -> Alcotest.failf "connect: %s" (Printexc.to_string e)
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  let k = 10 in
  let reqs =
    String.concat ""
      (List.init k (fun rid ->
           W.encode (W.Req { rid; op = (if rid mod 2 = 0 then W.Op_update rid else W.Op_scan) })))
  in
  if Unix.write_substring fd reqs 0 (String.length reqs) <> String.length reqs then
    Alcotest.fail "requests not written";
  let rd = Dist.Conn.reader fd in
  for rid = 0 to k - 1 do
    match Dist.Conn.read_frame rd with
    | Ok (W.Resp { rid = r; _ }) when r = rid -> ()
    | Ok f -> Alcotest.failf "reply %d: got %s" rid (frame_kind f)
    | Error _ -> Alcotest.failf "reply %d of %d never came" (rid + 1) k
  done

(* [request_stop] is safe from a signal handler: a SIGUSR1 handler that
   calls it makes a running node's thread (a [Node_main], as
   [Dist.Local] runs on each of its threads) return within 2 s. *)
let test_stop_from_signal () =
  with_dir "signal" @@ fun dir ->
  let eps = sock_eps dir 3 in
  let node =
    Dist.Node_main.start
      {
        Dist.Node_main.me = 0;
        eps;
        f = 1;
        algo = Rt.Service.Eq_aso;
        wal = None;
        recover = false;
        chaos = None;
      }
  in
  let returned = Atomic.make false in
  let loop =
    Thread.create
      (fun () ->
        Dist.Node_main.run node;
        Atomic.set returned true)
      ()
  in
  let old =
    Sys.signal Sys.sigusr1
      (Sys.Signal_handle (fun _ -> Dist.Node_main.request_stop node))
  in
  let cleanup () =
    Sys.set_signal Sys.sigusr1 old;
    Dist.Node_main.request_stop node;
    Thread.join loop;
    Dist.Node_main.shutdown node
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Thread.delay 0.1;
  Unix.kill (Unix.getpid ()) Sys.sigusr1;
  let deadline = Unix.gettimeofday () +. 2. in
  while (not (Atomic.get returned)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check bool) "node thread returned" true (Atomic.get returned)

(* Milliseconds from a post to the posted thunk's run on an idle
   one-node loop, the loop blocked in [select] when it starts: posted
   by another thread, or ([nested]) by a thunk that itself runs on the
   loop. Each must run at once, not at the next 20 ms tick: with the
   loop idle 30 ms between tries, a missed wake waits about 10 ms every
   time. Of five tries the second slowest is returned, so one scheduler
   hiccup on a loaded machine does not count. *)
let post_latency ~nested =
  with_dir (if nested then "wake-nested" else "wake-thread") @@ fun dir ->
  let net = Dist.Net.create ~me:0 ~eps:(sock_eps dir 1) () in
  let stop_loop = spawn_loop net in
  Fun.protect ~finally:stop_loop @@ fun () ->
  let once () =
    Thread.delay 0.03;
    let took = Atomic.make (-1) in
    let timed () =
      let t0 = Dist.Net.now_ns () in
      Dist.Net.post_work net (fun () ->
          Atomic.set took (Dist.Net.now_ns () - t0))
    in
    if nested then Dist.Net.post_work net timed else timed ();
    let deadline = Unix.gettimeofday () +. 1. in
    while Atomic.get took < 0 && Unix.gettimeofday () < deadline do
      Thread.delay 0.0005
    done;
    if Atomic.get took < 0 then Alcotest.fail "posted work never ran";
    float_of_int (Atomic.get took) /. 1e6
  in
  let tries = List.sort compare (List.init 5 (fun _ -> once ())) in
  List.nth tries 3

let test_wake_nested () =
  let ms = post_latency ~nested:true in
  if ms > 5. then Alcotest.failf "work posted on the loop ran after %.2f ms" ms

let test_wake_other_thread () =
  let ms = post_latency ~nested:false in
  if ms > 5. then
    Alcotest.failf "work posted from another thread ran after %.2f ms" ms

(* The non-blocking connect over TCP: node 0 dials node 1 before node 1
   listens (refused, then in progress once it does), and a message node
   0 sent before node 1 listened still arrives. *)
let test_tcp_late_listener () =
  let eps =
    let socks =
      List.init 2 (fun _ ->
          let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
          s)
    in
    let ep s =
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, port) -> Dist.Conn.Tcp_ep ("127.0.0.1", port)
      | Unix.ADDR_UNIX _ -> assert false
    in
    let eps = Array.of_list (List.map ep socks) in
    List.iter Unix.close socks;
    eps
  in
  let n0 = Dist.Net.create ~me:0 ~eps () and n1 = Dist.Net.create ~me:1 ~eps () in
  let got = Atomic.make [] in
  (Dist.Net.backend n1).set_handler 1 (fun ~src m ->
      Atomic.set got ((src, m) :: Atomic.get got));
  let msg = LC.Msg.Echo_tag { tag = 42 } in
  let stop0 = spawn_loop n0 in
  let stop1 = ref ignore in
  Fun.protect ~finally:(fun () -> stop0 (); !stop1 ()) @@ fun () ->
  Dist.Net.post_work n0 (fun () -> (Dist.Net.backend n0).send ~src:0 ~dst:1 msg);
  Thread.delay 0.2;
  stop1 := spawn_loop n1;
  let deadline = Unix.gettimeofday () +. 5. in
  while Atomic.get got = [] && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check bool) "delivered once, from node 0" true
    (Atomic.get got = [ (0, msg) ])

(* A connect that finds nobody listening returns at once after its last
   attempt: pollers use [~attempts:1] and set their own pace. *)
let test_connect_fails_fast () =
  with_dir "no-listener" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let ep = Dist.Conn.Unix_ep (Filename.concat dir "nobody.sock") in
  let t0 = Unix.gettimeofday () in
  let c = Dist.Client.connect ~attempts:1 ep in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "no connection" true (Option.is_none c);
  if dt > 0.005 then Alcotest.failf "a failed connect took %.1f ms" (dt *. 1e3)

(* ---- the incarnation fence ------------------------------------------ *)

let echo tag = LC.Msg.Echo_tag { tag }

(* Node 1 played by hand, answering node 0's dial on [listener]: read
   its Hello, answer [Welcome boot], and return the socket and its
   reader. *)
let answer_dial eps listener ~boot =
  let fd = Dist.Conn.accept eps.(1) listener in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.;
  let rd = Dist.Conn.reader fd in
  (match Dist.Conn.read_frame rd with
  | Ok (W.Hello { src = 0; _ }) -> ()
  | _ -> Alcotest.fail "expected node 0's Hello");
  if not (Dist.Conn.write_frame fd (W.Welcome { boot; rx_expected = 0 })) then
    Alcotest.fail "Welcome not written";
  (fd, rd)

(* Node 1's incarnation [boot] dials node 0 and reads its Welcome, so
   node 0 has seen [boot] once this returns. *)
let dial_node0 eps ~boot =
  let fd =
    match Dist.Conn.connect eps.(0) with
    | Ok fd -> fd
    | Error e -> Alcotest.failf "connect: %s" (Printexc.to_string e)
  in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.;
  let rd = Dist.Conn.reader fd in
  if not (Dist.Conn.write_frame fd (W.Hello { src = 1; boot })) then
    Alcotest.fail "Hello not written";
  (match Dist.Conn.read_frame rd with
  | Ok (W.Welcome _) -> ()
  | _ -> Alcotest.fail "expected node 0's Welcome");
  fd

let read_data rd what =
  match Dist.Conn.read_frame rd with
  | Ok (W.Data { seq; msg }) -> (seq, msg)
  | Ok f -> Alcotest.failf "%s: got a %s frame" what (frame_kind f)
  | Error _ -> Alcotest.failf "%s: nothing arrived" what

(* Node 0 runs on a thread; node 1 is played by hand. Its first
   incarnation (boot 1) answers node 0's dial and receives two messages
   it never acks, then dies; node 0 queues a third while it is down.
   [f] gets node 0, the endpoints and a function that makes node 1's
   next listener (node 0's redials are refused until then). *)
let with_dead_peer name f =
  with_dir name @@ fun dir ->
  let eps = sock_eps dir 2 in
  let fds = ref [] in
  let keep fd = fds := fd :: !fds; fd in
  let listen () =
    let l = keep (Dist.Conn.listen eps.(1)) in
    (* [accept] fails after 5 s instead of hanging the suite. *)
    Unix.setsockopt_float l Unix.SO_RCVTIMEO 5.;
    l
  in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let net = Dist.Net.create ~me:0 ~eps () in
  let listener = listen () in
  let stop_loop = spawn_loop net in
  Fun.protect ~finally:(fun () -> List.iter close !fds; stop_loop ()) @@ fun () ->
  let send tag =
    Dist.Net.post_work net (fun () -> (Dist.Net.backend net).send ~src:0 ~dst:1 (echo tag))
  in
  let old, rd = answer_dial eps listener ~boot:1 in
  send 1;
  send 2;
  ignore (read_data rd "first incarnation, message 1");
  ignore (read_data rd "first incarnation, message 2");
  close old;
  close listener;
  send 3;
  Thread.delay 0.05;
  f net eps ~send ~listen ~keep

(* Frames queued toward a killed peer are lost with it: its next
   incarnation's channel from node 0 starts with what node 0 sends
   after meeting it, at seq 0. *)
let test_fence_drops_backlog () =
  with_dead_peer "fence-backlog" @@ fun _net eps ~send ~listen ~keep ->
  ignore (keep (dial_node0 eps ~boot:2));
  let listener = listen () in
  let fd, rd = answer_dial eps listener ~boot:2 in
  ignore (keep fd);
  send 4;
  match read_data rd "second incarnation" with
  | 0, LC.Msg.Echo_tag { tag = 4 } -> ()
  | seq, m ->
      Alcotest.failf "the new incarnation got seq %d (%s) before message 4" seq
        (LC.Msg.kind m)

(* The first sighting of a new incarnation fences it, on whichever
   connection it comes: node 1's new incarnation dials in and sends a
   message while node 0's redial to it is still refused and backing
   off. Node 0's reply, sent after the fence, must reach node 1 once
   the redial gets through, as the first frame of the channel; a fence
   that waited for the redial's Welcome would drop it. *)
let test_fence_keeps_reply () =
  with_dead_peer "fence-reply" @@ fun net eps ~send:_ ~listen ~keep ->
  let b = Dist.Net.backend net in
  Dist.Net.post_work net (fun () ->
      b.set_handler 0 (fun ~src m ->
          match m with
          | LC.Msg.Echo_tag { tag } when src = 1 ->
              b.send ~src:0 ~dst:1 (echo (tag + 100))
          | _ -> ()));
  let inbound = keep (dial_node0 eps ~boot:2) in
  if not (Dist.Conn.write_frame inbound (W.Data { seq = 0; msg = echo 7 })) then
    Alcotest.fail "node 1's message not written";
  Thread.delay 0.2;
  let listener = listen () in
  let fd, rd = answer_dial eps listener ~boot:2 in
  ignore (keep fd);
  match read_data rd "the reply" with
  | 0, LC.Msg.Echo_tag { tag = 107 } -> ()
  | seq, m ->
      Alcotest.failf "the new incarnation got seq %d (%s), not the reply" seq
        (LC.Msg.kind m)

(* [request_stop] ends an operation that waits on peers that will never
   answer: [run] returns while the loop sits in an [await] whose
   predicate never holds. *)
let test_stop_ends_await () =
  with_dir "stop-await" @@ fun dir ->
  let net = Dist.Net.create ~me:0 ~eps:(sock_eps dir 1) () in
  Dist.Net.start net;
  let waiting = Atomic.make false and returned = Atomic.make false in
  let loop =
    Thread.create (fun () -> Dist.Net.run net; Atomic.set returned true) ()
  in
  let cond = (Dist.Net.backend net).new_condition ~node:0 in
  Dist.Net.post_work net (fun () ->
      Atomic.set waiting true;
      cond.await (fun () -> false));
  let within secs flag =
    let deadline = Unix.gettimeofday () +. secs in
    while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
      Thread.delay 0.005
    done;
    Atomic.get flag
  in
  if not (within 1. waiting) then Alcotest.fail "the work item never ran";
  Dist.Net.request_stop net;
  (* A loop that never returns is left running: nothing can end it. *)
  if not (within 1. returned) then
    Alcotest.fail "run did not return within 1 s of request_stop";
  Thread.join loop;
  Dist.Net.stop net

(* ---- one write per turn --------------------------------------------- *)

let until secs pred =
  let deadline = Unix.gettimeofday () +. secs in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.002
  done;
  pred ()

(* Frames wait in the out-buffer until the loop's next [select]: one
   work item that sends [k] messages to node 1 costs node 0 one write,
   and node 1 delivers all [k] in order. Both links are up and their
   acks settled before the count starts. *)
let test_one_write_per_turn () =
  with_dir "cork" @@ fun dir ->
  let eps = sock_eps dir 2 in
  let nets = Array.init 2 (fun me -> Dist.Net.create ~me ~eps ()) in
  let got = Array.init 2 (fun _ -> Atomic.make []) in
  Array.iteri
    (fun me net ->
      (Dist.Net.backend net).set_handler me (fun ~src:_ m ->
          Atomic.set got.(me) (m :: Atomic.get got.(me))))
    nets;
  let stops = Array.map spawn_loop nets in
  Fun.protect ~finally:(fun () -> Array.iter (fun stop -> stop ()) stops) @@ fun () ->
  let send src msgs =
    Dist.Net.post_work nets.(src) (fun () ->
        List.iter ((Dist.Net.backend nets.(src)).send ~src ~dst:(1 - src)) msgs)
  in
  let delivered dst n () = List.length (Atomic.get got.(dst)) >= n in
  send 0 [ echo 0 ];
  send 1 [ echo 0 ];
  if not (until 5. (delivered 1 1) && until 5. (delivered 0 1)) then
    Alcotest.fail "the links never came up";
  let count me name () =
    Obs.Metrics.snapshot (Dist.Net.metrics nets.(me))
    |> Fun.flip Obs.Metrics.find_count name
    |> Option.value ~default:0
  in
  (* Each node's tick acks the other's warm-up message. *)
  if not (until 5. (fun () -> count 0 "dist.acks_sent" () > 0 && count 1 "dist.acks_sent" () > 0))
  then Alcotest.fail "the warm-up messages were never acked";
  Thread.delay 0.05;
  let writes = count 0 "dist.socket_writes" in
  let before = writes () in
  let k = 50 in
  let msgs = List.init k (fun i -> echo (i + 1)) in
  send 0 msgs;
  if not (until 5. (delivered 1 (k + 1))) then
    Alcotest.failf "node 1 delivered %d of %d" (List.length (Atomic.get got.(1)) - 1) k;
  Alcotest.(check int) "socket writes for one turn's frames" 1 (writes () - before);
  Alcotest.(check bool) "delivered in order" true
    (List.rev (Atomic.get got.(1)) = echo 0 :: msgs)

(* A reply that the last work item buffers before a stop still reaches
   the client: [run] writes every out-buffer once before it returns,
   ahead of [stop], which closes the sockets. *)
let test_reply_before_stop () =
  with_dir "reply-stop" @@ fun dir ->
  let eps = sock_eps dir 1 in
  let net = Dist.Net.create ~me:0 ~eps () in
  Dist.Net.set_client_handler net (fun frame ~reply ->
      match frame with
      | W.Req { rid; _ } ->
          Dist.Net.post_work net (fun () ->
              reply (W.Resp { rid; t_inv = 1; t_resp = 2; result = W.R_update_done });
              Dist.Net.request_stop net)
      | _ -> ());
  Dist.Net.start net;
  let loop = Thread.create Dist.Net.run net in
  let cleanup () =
    Dist.Net.request_stop net;
    Thread.join loop;
    Dist.Net.stop net
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  match Dist.Client.connect ~rcv_timeout:2. eps.(0) with
  | None -> Alcotest.fail "node 0 unreachable"
  | Some c -> (
      Fun.protect ~finally:(fun () -> Dist.Client.close c) @@ fun () ->
      match Dist.Client.update c 1 with
      | Ok _ -> ()
      | Error () -> Alcotest.fail "the reply was lost at the stop")

(* ---- suites ---------------------------------------------------------- *)

let suites =
  [
    ( "dist_wire",
      [
        qcase wire_roundtrip;
        qcase wire_stream;
        qcase wire_socket_chunks;
        qcase wire_torn;
        qcase wire_flip_payload;
        qcase wire_flip_checksum;
        qcase wire_garbage_no_crash;
        Alcotest.test_case "header rejection matrix" `Quick
          test_header_rejection;
        Alcotest.test_case "wire version 1 golden bytes" `Quick test_golden;
      ] );
    ( "dist_e2e",
      [
        Alcotest.test_case "eq-aso over sockets linearizable" `Quick
          test_e2e_eq_aso;
        Alcotest.test_case "eq-aso under socket chaos" `Quick test_e2e_chaos;
        Alcotest.test_case "fault dice independent per node" `Quick
          test_fault_dice_per_node;
        Alcotest.test_case "sso over sockets sequential" `Quick test_e2e_sso;
        Alcotest.test_case "eq-aso crash-restart in process" `Quick
          test_e2e_crash_restart;
        Alcotest.test_case "stalled peer never blocks the sender" `Quick
          test_stalled_peer;
        Alcotest.test_case "stalled ack reader never blocks acks" `Quick
          test_stalled_ack_reader;
        Alcotest.test_case "tcp sockets set TCP_NODELAY" `Quick
          test_tcp_nodelay;
        Alcotest.test_case "one thread per node" `Quick test_thread_count;
        Alcotest.test_case "a client that reads nothing stalls no one" `Quick
          test_client_reads_nothing;
        Alcotest.test_case "a client's pipelined requests are all answered"
          `Quick test_client_pipelines;
        Alcotest.test_case "request_stop from a signal handler" `Quick
          test_stop_from_signal;
        Alcotest.test_case "work posted on the loop runs at once" `Quick
          test_wake_nested;
        Alcotest.test_case "work posted from another thread wakes the loop"
          `Quick test_wake_other_thread;
        Alcotest.test_case "tcp dial before the peer listens" `Quick
          test_tcp_late_listener;
        Alcotest.test_case "a failed connect does not sleep" `Quick
          test_connect_fails_fast;
        Alcotest.test_case "fence: a dead peer's backlog is lost" `Quick
          test_fence_drops_backlog;
        Alcotest.test_case "fence: a reply to a new incarnation survives"
          `Quick test_fence_keeps_reply;
        Alcotest.test_case "request_stop ends an await" `Quick
          test_stop_ends_await;
        Alcotest.test_case "one turn's frames to a peer cost one write" `Quick
          test_one_write_per_turn;
        Alcotest.test_case "a reply buffered before a stop goes out" `Quick
          test_reply_before_stop;
      ] );
  ]
