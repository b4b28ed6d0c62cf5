type t = {
  fd : Unix.file_descr;
  reader : Conn.reader;
  mutable next_rid : int;
  mutable dead : bool;
}

let connect ?(attempts = 50) ?(rcv_timeout = 30.) ep =
  let rec go k =
    if k = 0 then None
    else
      match Conn.connect ep with
      | Ok fd ->
          (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO rcv_timeout
           with Unix.Unix_error _ -> ());
          Some { fd; reader = Conn.reader fd; next_rid = 0; dead = false }
      | Error _ when k = 1 -> None
      | Error _ ->
          Thread.delay 0.02;
          go (k - 1)
  in
  go attempts

let close t =
  t.dead <- true;
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Send one Req and wait for the matching Resp. Any read/write failure
   (including the receive timeout) poisons the connection: we cannot
   know whether the op took effect, which is exactly an abort. *)
let roundtrip t op =
  if t.dead then Error ()
  else begin
    let rid = t.next_rid in
    t.next_rid <- rid + 1;
    if not (Conn.write_frame t.fd (Wire.Req { rid; op })) then begin
      t.dead <- true;
      Error ()
    end
    else
      let rec wait () =
        match Conn.read_frame t.reader with
        | Ok (Wire.Resp { rid = rid'; t_inv; t_resp; result })
          when rid' = rid ->
            Ok (t_inv, t_resp, result)
        | Ok (Wire.Resp _) -> wait ()  (* a stale response; skip *)
        | Ok _ | Error _ ->
            t.dead <- true;
            Error ()
      in
      wait ()
  end

let update t v =
  match roundtrip t (Wire.Op_update v) with
  | Ok (t_inv, t_resp, Wire.R_update_done) -> Ok (t_inv, t_resp)
  | Ok _ ->
      t.dead <- true;
      Error ()
  | Error () -> Error ()

let scan t =
  match roundtrip t Wire.Op_scan with
  | Ok (t_inv, t_resp, Wire.R_scan snap) -> Ok (snap, t_inv, t_resp)
  | Ok _ ->
      t.dead <- true;
      Error ()
  | Error () -> Error ()
