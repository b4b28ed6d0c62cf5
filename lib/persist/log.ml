(* Line-based framing in the spirit of lib/mc/replay.ml's text
   round-tripping, hardened for crash recovery: every record is
   length-prefixed and checksummed, so a write torn anywhere inside the
   final frame is detected on replay and the longest valid prefix is
   recovered. The whole file is plain text — a WAL from a crashed run
   can be read, diffed and truncated with ordinary tools. *)

let magic = "aso-wal 1"

(* ---- payloads -------------------------------------------------------- *)

let payload = function
  | Record.Entry { tag; writer; value } ->
      Printf.sprintf "E %d %d %d" tag writer value
  | Record.Restart -> "R"

let parse_payload s =
  match String.split_on_char ' ' s with
  | [ "E"; tag; writer; value ] -> (
      match
        (int_of_string_opt tag, int_of_string_opt writer,
         int_of_string_opt value)
      with
      | Some tag, Some writer, Some value ->
          Some (Record.Entry { tag; writer; value })
      | _ -> None)
  | [ "R" ] -> Some Record.Restart
  | _ -> None

(* ---- checksum -------------------------------------------------------- *)

(* FNV-1a, 32 bits: cheap, dependency-free, and plenty to catch the
   single-frame truncations and bit flips a torn append produces (this
   is corruption {e detection} for recovery, not an integrity MAC). *)
let checksum s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xffffffff)
    s;
  !h

(* ---- framing --------------------------------------------------------- *)

(* [LEN CHECKSUM PAYLOAD\n] with LEN the byte length of PAYLOAD: the
   length prefix bounds the frame before the payload is trusted, the
   checksum rejects a frame whose bytes survived truncation by accident,
   and the trailing newline must be present for the frame to count —
   three independent ways a torn tail fails to parse. *)
let frame record =
  let p = payload record in
  Printf.sprintf "%d %08x %s\n" (String.length p) (checksum p) p

type tail = Clean | Torn of { valid : int; dropped_bytes : int }

type replayed = { records : int Record.t list; tail : tail }

(* Scan one frame starting at [pos]; [Ok (record, next_pos)] or [Error
   ()] if the remaining bytes do not form a complete, checksummed
   frame — the torn-tail case. *)
let parse_frame s pos =
  let len = String.length s in
  let digits_end field start =
    let rec go i =
      if i < len && s.[i] <> ' ' then go (i + 1)
      else if i > start && i < len then Ok i
      else Error field
    in
    go start
  in
  match digits_end `Len pos with
  | Error _ -> Error ()
  | Ok sp1 -> (
      match int_of_string_opt (String.sub s pos (sp1 - pos)) with
      | None -> Error ()
      | Some plen -> (
          match digits_end `Sum (sp1 + 1) with
          | Error _ -> Error ()
          | Ok sp2 -> (
              match
                int_of_string_opt ("0x" ^ String.sub s (sp1 + 1) (sp2 - sp1 - 1))
              with
              | None -> Error ()
              | Some sum ->
                  let body = sp2 + 1 in
                  if plen < 0 || body + plen >= len then Error ()
                  else if s.[body + plen] <> '\n' then Error ()
                  else
                    let p = String.sub s body plen in
                    if checksum p <> sum then Error ()
                    else (
                      match parse_payload p with
                      | None -> Error ()
                      | Some r -> Ok (r, body + plen + 1)))))

let replay_string s =
  let len = String.length s in
  let header = magic ^ "\n" in
  let hlen = String.length header in
  if len < hlen || String.sub s 0 hlen <> header then
    Error
      (Printf.sprintf "not a write-ahead log (missing %S header)" magic)
  else
    let rec go acc pos =
      if pos >= len then { records = List.rev acc; tail = Clean }
      else
        match parse_frame s pos with
        | Ok (r, next) -> go (r :: acc) next
        | Error () ->
            (* First unparsable frame: everything before it is the
               longest valid prefix; everything from here on is the torn
               tail (or garbage behind it — either way, not trusted). *)
            {
              records = List.rev acc;
              tail = Torn { valid = pos; dropped_bytes = len - pos };
            }
    in
    Ok (go [] hlen)

let replay_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      replay_string s

(* ---- appending ------------------------------------------------------- *)

type writer = { path : string; oc : out_channel }

let create_writer path =
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644
      path
  in
  (* Fresh log: stamp the header. An empty file did not exist (or was
     not a valid log anyway). [pos_out] will not do: on an append
     channel it reads 0 until the first write, so every reopen would
     stamp a second header mid-file. *)
  if out_channel_length oc = 0 then begin
    output_string oc (magic ^ "\n");
    flush oc
  end;
  { path; oc }

(* One [output_string] of a fully formatted frame, then flush: the
   runtime hands the frame to the OS in a single write, so a crash of
   this process leaves either no trace of the record or a (possibly
   torn) tail that replay detects — never an interleaved half-frame in
   the middle of the log. *)
let append w record =
  output_string w.oc (frame record);
  flush w.oc

let writer_path w = w.path

let close_writer w = close_out w.oc
