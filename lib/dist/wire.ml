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
let checksum_sub b pos len =
  let h = ref 0x811c9dc5 in
  for i = pos to pos + len - 1 do
    h := !h lxor Char.code (Bytes.unsafe_get b i);
    h := !h * 0x01000193 land 0xffffffff
  done;
  !h

let checksum s = checksum_sub (Bytes.unsafe_of_string s) 0 (String.length s)

(* ---- varints --------------------------------------------------------- *)

(* Zigzag + LEB128. [lsl]/[lsr] keep this total on the whole int range
   (including [min_int], whose zigzag image has the top bit set): the
   encoder loops on the logical shift, so any 63-bit pattern costs at
   most 9 bytes and round-trips exactly. *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))

(* The encoder writes at [pos] of [b] and returns the offset just past
   what it wrote; [Bytes.set] stops it at the end of [b]. *)
let put_byte b pos c =
  Bytes.set b pos (Char.unsafe_chr c);
  pos + 1

(* Top-level loops, not local closures: no allocation per integer. *)
let rec put_leb b pos v =
  if v land lnot 0x7f = 0 then put_byte b pos v
  else put_leb b (put_byte b pos (v land 0x7f lor 0x80)) (v lsr 7)

let put_varint b pos n = put_leb b pos (zigzag n)

exception Fail

type parser_ = { b : Bytes.t; mutable pos : int; limit : int }

let byte p =
  if p.pos >= p.limit then raise Fail;
  let c = Char.code (Bytes.get p.b p.pos) in
  p.pos <- p.pos + 1;
  c

let rec get_leb p acc shift count =
  if count > 9 then raise Fail;
  let b = byte p in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else get_leb p acc (shift + 7) (count + 1)

let varint p = unzigzag (get_leb p 0 0 1)

(* ---- payloads -------------------------------------------------------- *)

(* [v1] and [v2] write a kind byte and one or two varints. *)

module Msg_ = Aso_core.Lattice_core.Msg

let v1 b pos kind x = put_varint b (put_byte b pos kind) x
let v2 b pos kind x y = put_varint b (v1 b pos kind x) y

let put_entries b pos entries =
  List.fold_left
    (fun pos ((ts : Timestamp.t), value) ->
      put_varint b (put_varint b (put_varint b pos ts.tag) ts.writer) value)
    pos entries

let put_msg b pos (m : msg) =
  match m with
  | Msg_.Value { ts; value } ->
      put_varint b (v2 b pos 0 ts.Timestamp.tag ts.Timestamp.writer) value
  | Msg_.Read_tag { req } -> v1 b pos 1 req
  | Msg_.Read_ack { req; tag } -> v2 b pos 2 req tag
  | Msg_.Write_tag { req; tag } -> v2 b pos 3 req tag
  | Msg_.Write_ack { req } -> v1 b pos 4 req
  | Msg_.Echo_tag { tag } -> v1 b pos 5 tag
  | Msg_.Good_la { tag } -> v1 b pos 6 tag
  | Msg_.Recover_pull { req } -> v1 b pos 7 req
  | Msg_.Recover_push { req; entries; max_tag } ->
      let pos = put_varint b (v2 b pos 8 req max_tag) (List.length entries) in
      put_entries b pos entries

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

let put_snap b pos (snap : int option array) =
  Array.fold_left
    (fun pos cell ->
      match cell with None -> put_byte b pos 0 | Some v -> v1 b pos 1 v)
    (put_varint b pos (Array.length snap))
    snap

let get_snap p =
  let len = varint p in
  if len < 0 || len > max_payload then raise Fail;
  Array.init len (fun _ ->
      match byte p with
      | 0 -> None
      | 1 -> Some (varint p)
      | _ -> raise Fail)

let put_frame b pos = function
  | Hello { src; boot } -> v2 b pos 1 src boot
  | Welcome { boot; rx_expected } -> v2 b pos 2 boot rx_expected
  | Data { seq; msg } -> put_msg b (v1 b pos 3 seq) msg
  | Ack { upto } -> v1 b pos 4 upto
  | Req { rid; op = Op_scan } -> put_byte b (v1 b pos 5 rid) 0
  | Req { rid; op = Op_update v } -> v1 b (v1 b pos 5 rid) 1 v
  | Resp { rid; t_inv; t_resp; result } -> (
      let pos = put_varint b (v2 b pos 6 rid t_inv) t_resp in
      match result with
      | R_update_done -> put_byte b pos 0
      | R_scan snap -> put_snap b (put_byte b pos 1) snap)

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

let put_u32 b pos v =
  Bytes.set b pos (Char.unsafe_chr (v land 0xff));
  Bytes.set b (pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.set b (pos + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.set b (pos + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

let get_u32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xffffffff

(* The payload first, behind the header's room, then the header that
   measures and checksums it where it lies. *)
let encode_into b ~pos frame =
  let body = pos + header_len in
  let limit = put_frame b body frame in
  Bytes.set b pos 'A';
  Bytes.set b (pos + 1) 'W';
  Bytes.set b (pos + 2) (Char.chr version);
  put_u32 b (pos + 3) (limit - body);
  put_u32 b (pos + 7) (checksum_sub b body (limit - body));
  limit

(* The size of a frame is known only once it is written, so a frame
   that does not fit is written again into a buffer twice as large,
   like a socket's out-buffer in {!Net}: the format is written down
   once, in the [put_*] functions. *)
let rec encode_sized n frame =
  let b = Bytes.create n in
  match encode_into b ~pos:0 frame with
  | stop -> Bytes.sub_string b 0 stop
  | exception Invalid_argument _ -> encode_sized (2 * n) frame

let encode frame = encode_sized 64 frame

(* No local closure over [b]: this runs for every frame a socket
   reads, and a closure would be allocated for each. *)
let frame_length b ~pos ~len =
  if len < header_len then
    (* Not even a whole header: only reject what we can already see. *)
    if len > 0 && Bytes.get b pos <> 'A' then Error Bad_magic
    else if len > 1 && Bytes.get b (pos + 1) <> 'W' then Error Bad_magic
    else Error Truncated
  else if Bytes.get b pos <> 'A' || Bytes.get b (pos + 1) <> 'W' then
    Error Bad_magic
  else if Char.code (Bytes.get b (pos + 2)) <> version then
    Error (Bad_version (Char.code (Bytes.get b (pos + 2))))
  else
    let plen = get_u32 b (pos + 3) in
    if plen > max_payload then Error (Oversize plen)
    else Ok (header_len + plen)

let decode_bytes b ~pos ~len =
  match frame_length b ~pos ~len with
  | Error e -> Error e
  | Ok total when total > len -> Error Truncated
  | Ok total ->
      let body = pos + header_len and limit = pos + total in
      if checksum_sub b body (limit - body) <> get_u32 b (pos + 7) then
        Error Bad_checksum
      else
        let p = { b; pos = body; limit } in
        match get_frame p with
        | exception Fail -> Error Bad_payload
        | frame ->
            (* The payload must be consumed exactly: trailing garbage
               behind a parsable prefix is still a corrupt frame. *)
            if p.pos <> p.limit then Error Bad_payload
            else Ok (frame, limit)

let decode s ~pos =
  decode_bytes (Bytes.unsafe_of_string s) ~pos ~len:(String.length s - pos)
