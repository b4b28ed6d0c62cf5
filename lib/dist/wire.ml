type msg = int Aso_core.Lattice_core.Msg.t

type client_op = Op_update of int | Op_scan

type op_result = R_update_done | R_scan of int option array

type frame =
  | Hello of { src : int; boot : int }
  | Welcome of { boot : int; rx_expected : int }
  | Data of { seq : int; msg : msg }
  | Ack of { upto : int }
  | Req of { rid : int; op : client_op }
  | Resp of { rid : int; t_inv : int; t_resp : int; result : op_result }

let version = 1

(* "AW" + version byte + u32 payload length + u32 checksum. *)
let header_len = 2 + 1 + 4 + 4

let max_payload = 16 * 1024 * 1024

type error =
  | Bad_magic
  | Bad_version of int
  | Oversize of int
  | Truncated
  | Bad_checksum
  | Bad_payload

let pp_error ppf = function
  | Bad_magic -> Format.fprintf ppf "bad magic (not an AW frame)"
  | Bad_version v -> Format.fprintf ppf "wire version %d (speak %d)" v version
  | Oversize n -> Format.fprintf ppf "payload length %d exceeds cap" n
  | Truncated -> Format.fprintf ppf "truncated frame"
  | Bad_checksum -> Format.fprintf ppf "checksum mismatch"
  | Bad_payload -> Format.fprintf ppf "unparsable payload"

(* Same FNV-1a 32 as the write-ahead log: corruption *detection* on a
   loopback/LAN path, not an integrity MAC. *)
let checksum_sub s pos len =
  let h = ref 0x811c9dc5 in
  for i = pos to pos + len - 1 do
    h := !h lxor Char.code (String.unsafe_get s i);
    h := !h * 0x01000193 land 0xffffffff
  done;
  !h

let checksum s = checksum_sub s 0 (String.length s)

(* ---- varints --------------------------------------------------------- *)

(* Zigzag + LEB128. [lsl]/[lsr] keep this total on the whole int range
   (including [min_int], whose zigzag image has the top bit set): the
   encoder loops on the logical shift, so any 63-bit pattern costs at
   most 9 bytes and round-trips exactly. *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))

let put_varint buf n =
  let v = ref (zigzag n) in
  let continue = ref true in
  while !continue do
    if !v land lnot 0x7f = 0 then begin
      Buffer.add_char buf (Char.chr !v);
      continue := false
    end
    else begin
      Buffer.add_char buf (Char.chr ((!v land 0x7f) lor 0x80));
      v := !v lsr 7
    end
  done

exception Fail

type parser_ = { s : string; mutable pos : int; limit : int }

let byte p =
  if p.pos >= p.limit then raise Fail;
  let c = Char.code p.s.[p.pos] in
  p.pos <- p.pos + 1;
  c

let varint p =
  let rec go acc shift count =
    if count > 9 then raise Fail;
    let b = byte p in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go acc (shift + 7) (count + 1)
  in
  unzigzag (go 0 0 1)

(* ---- payloads -------------------------------------------------------- *)

module Msg_ = Aso_core.Lattice_core.Msg

let put_msg buf (m : msg) =
  let v = put_varint buf in
  match m with
  | Msg_.Value { ts; value } ->
      Buffer.add_char buf '\000';
      v ts.Timestamp.tag;
      v ts.Timestamp.writer;
      v value
  | Msg_.Read_tag { req } ->
      Buffer.add_char buf '\001';
      v req
  | Msg_.Read_ack { req; tag } ->
      Buffer.add_char buf '\002';
      v req;
      v tag
  | Msg_.Write_tag { req; tag } ->
      Buffer.add_char buf '\003';
      v req;
      v tag
  | Msg_.Write_ack { req } ->
      Buffer.add_char buf '\004';
      v req
  | Msg_.Echo_tag { tag } ->
      Buffer.add_char buf '\005';
      v tag
  | Msg_.Good_la { tag } ->
      Buffer.add_char buf '\006';
      v tag
  | Msg_.Recover_pull { req } ->
      Buffer.add_char buf '\007';
      v req
  | Msg_.Recover_push { req; entries; max_tag } ->
      Buffer.add_char buf '\008';
      v req;
      v max_tag;
      v (List.length entries);
      List.iter
        (fun ((ts : Timestamp.t), value) ->
          v ts.tag;
          v ts.writer;
          v value)
        entries

let get_msg p : msg =
  match byte p with
  | 0 ->
      let tag = varint p in
      let writer = varint p in
      let value = varint p in
      Msg_.Value { ts = { Timestamp.tag; writer }; value }
  | 1 -> Msg_.Read_tag { req = varint p }
  | 2 ->
      let req = varint p in
      Msg_.Read_ack { req; tag = varint p }
  | 3 ->
      let req = varint p in
      Msg_.Write_tag { req; tag = varint p }
  | 4 -> Msg_.Write_ack { req = varint p }
  | 5 -> Msg_.Echo_tag { tag = varint p }
  | 6 -> Msg_.Good_la { tag = varint p }
  | 7 -> Msg_.Recover_pull { req = varint p }
  | 8 ->
      let req = varint p in
      let max_tag = varint p in
      let len = varint p in
      if len < 0 || len > max_payload then raise Fail;
      let entries =
        List.init len (fun _ ->
            let tag = varint p in
            let writer = varint p in
            let value = varint p in
            ({ Timestamp.tag; writer }, value))
      in
      Msg_.Recover_push { req; entries; max_tag }
  | _ -> raise Fail

let put_snap buf (snap : int option array) =
  put_varint buf (Array.length snap);
  Array.iter
    (fun cell ->
      match cell with
      | None -> Buffer.add_char buf '\000'
      | Some v ->
          Buffer.add_char buf '\001';
          put_varint buf v)
    snap

let get_snap p =
  let len = varint p in
  if len < 0 || len > max_payload then raise Fail;
  Array.init len (fun _ ->
      match byte p with
      | 0 -> None
      | 1 -> Some (varint p)
      | _ -> raise Fail)

let put_frame buf = function
  | Hello { src; boot } ->
      Buffer.add_char buf '\001';
      put_varint buf src;
      put_varint buf boot
  | Welcome { boot; rx_expected } ->
      Buffer.add_char buf '\002';
      put_varint buf boot;
      put_varint buf rx_expected
  | Data { seq; msg } ->
      Buffer.add_char buf '\003';
      put_varint buf seq;
      put_msg buf msg
  | Ack { upto } ->
      Buffer.add_char buf '\004';
      put_varint buf upto
  | Req { rid; op } -> (
      Buffer.add_char buf '\005';
      put_varint buf rid;
      match op with
      | Op_scan -> Buffer.add_char buf '\000'
      | Op_update v ->
          Buffer.add_char buf '\001';
          put_varint buf v)
  | Resp { rid; t_inv; t_resp; result } -> (
      Buffer.add_char buf '\006';
      put_varint buf rid;
      put_varint buf t_inv;
      put_varint buf t_resp;
      match result with
      | R_update_done -> Buffer.add_char buf '\000'
      | R_scan snap ->
          Buffer.add_char buf '\001';
          put_snap buf snap)

let get_frame p =
  match byte p with
  | 1 ->
      let src = varint p in
      Hello { src; boot = varint p }
  | 2 ->
      let boot = varint p in
      Welcome { boot; rx_expected = varint p }
  | 3 ->
      let seq = varint p in
      Data { seq; msg = get_msg p }
  | 4 -> Ack { upto = varint p }
  | 5 ->
      let rid = varint p in
      let op =
        match byte p with
        | 0 -> Op_scan
        | 1 -> Op_update (varint p)
        | _ -> raise Fail
      in
      Req { rid; op }
  | 6 ->
      let rid = varint p in
      let t_inv = varint p in
      let t_resp = varint p in
      let result =
        match byte p with
        | 0 -> R_update_done
        | 1 -> R_scan (get_snap p)
        | _ -> raise Fail
      in
      Resp { rid; t_inv; t_resp; result }
  | _ -> raise Fail

(* ---- framing --------------------------------------------------------- *)

let put_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let get_u32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xffffffff

let encode frame =
  let payload = Buffer.create 64 in
  put_frame payload frame;
  let p = Buffer.contents payload in
  let out = Buffer.create (header_len + String.length p) in
  Buffer.add_string out "AW";
  Buffer.add_char out (Char.chr version);
  put_u32 out (String.length p);
  put_u32 out (checksum p);
  Buffer.add_string out p;
  Buffer.contents out

let frame_length b ~pos ~len =
  let byte i = Bytes.get b (pos + i) in
  if len < header_len then
    (* Not even a whole header: only reject what we can already see. *)
    if len > 0 && byte 0 <> 'A' then Error Bad_magic
    else if len > 1 && byte 1 <> 'W' then Error Bad_magic
    else Error Truncated
  else if byte 0 <> 'A' || byte 1 <> 'W' then Error Bad_magic
  else if Char.code (byte 2) <> version then
    Error (Bad_version (Char.code (byte 2)))
  else
    let plen = get_u32 b (pos + 3) in
    if plen > max_payload then Error (Oversize plen)
    else Ok (header_len + plen)

let decode s ~pos =
  let b = Bytes.unsafe_of_string s in
  match frame_length b ~pos ~len:(String.length s - pos) with
  | Error e -> Error e
  | Ok total when pos + total > String.length s -> Error Truncated
  | Ok total ->
      let body = pos + header_len and limit = pos + total in
      if checksum_sub s body (limit - body) <> get_u32 b (pos + 7) then
        Error Bad_checksum
      else
        let p = { s; pos = body; limit } in
        match get_frame p with
        | exception Fail -> Error Bad_payload
        | frame ->
            (* The payload must be consumed exactly: trailing garbage
               behind a parsable prefix is still a corrupt frame. *)
            if p.pos <> p.limit then Error Bad_payload
            else Ok (frame, limit)
