type value = Int of int | Float of float | Str of string | Bool of bool

type kind = Begin | End | Instant | Counter | Flow_start | Flow_end

type event = {
  ts : float;
  pid : int;
  kind : kind;
  name : string;
  cat : string;
  args : (string * value) list;
}

type t = {
  enabled : bool;
  capacity : int; (* 0 = unbounded *)
  buf : event Queue.t;
  mutable evicted : int;
  mutable emitted : int;
}

let noop =
  { enabled = false; capacity = 0; buf = Queue.create (); evicted = 0;
    emitted = 0 }

let create ?(capacity = 0) () =
  if capacity < 0 then invalid_arg "Obs.Trace.create: negative capacity";
  { enabled = true; capacity; buf = Queue.create (); evicted = 0; emitted = 0 }

let enabled t = t.enabled

let emit t ev =
  if t.enabled then begin
    t.emitted <- t.emitted + 1;
    Queue.push ev t.buf;
    if t.capacity > 0 && Queue.length t.buf > t.capacity then begin
      ignore (Queue.pop t.buf);
      t.evicted <- t.evicted + 1
    end
  end

let span_begin t ~ts ~pid ?(cat = "phase") ?(args = []) name =
  emit t { ts; pid; kind = Begin; name; cat; args }

let span_end t ~ts ~pid ?(cat = "phase") ?(args = []) name =
  emit t { ts; pid; kind = End; name; cat; args }

let span t ~now ~pid ?(cat = "phase") ?args name f =
  if not t.enabled then f ()
  else begin
    span_begin t ~ts:(now ()) ~pid ~cat ?args name;
    Fun.protect ~finally:(fun () -> span_end t ~ts:(now ()) ~pid ~cat name) f
  end

let instant t ~ts ~pid ?(cat = "event") ?(args = []) name =
  emit t { ts; pid; kind = Instant; name; cat; args }

let flow_start t ~ts ~pid ~id ?(cat = "flow") ?(args = []) name =
  emit t
    { ts; pid; kind = Flow_start; name; cat; args = ("id", Int id) :: args }

let flow_end t ~ts ~pid ~id ?(cat = "flow") ?(args = []) name =
  emit t
    { ts; pid; kind = Flow_end; name; cat; args = ("id", Int id) :: args }

let counter t ~ts ~pid ~value name =
  emit t
    { ts; pid; kind = Counter; name; cat = "counter";
      args = [ ("value", Float value) ] }

let length t = Queue.length t.buf
let emitted t = t.emitted
let evicted t = t.evicted
let events t = List.of_seq (Queue.to_seq t.buf)

let tail t n =
  let len = Queue.length t.buf in
  if n >= len then events t
  else
    Queue.fold (fun (i, acc) ev ->
        (i + 1, if i >= len - n then ev :: acc else acc))
      (0, []) t.buf
    |> snd |> List.rev

let clear t =
  Queue.clear t.buf;
  t.evicted <- 0;
  t.emitted <- 0

(* ---- rendering ------------------------------------------------------- *)

let pp_value ppf = function
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.pp_print_string ppf s
  | Bool b -> Format.pp_print_bool ppf b

let kind_glyph = function
  | Begin -> "B"
  | End -> "E"
  | Instant -> "i"
  | Counter -> "C"
  | Flow_start -> "s"
  | Flow_end -> "f"

let pp_event ppf ev =
  Format.fprintf ppf "t=%-8.2f p%-3d %s %s:%s" ev.ts ev.pid
    (kind_glyph ev.kind) ev.cat ev.name;
  List.iter
    (fun (k, v) -> Format.fprintf ppf " %s=%a" k pp_value v)
    ev.args

(* ---- JSON export ----------------------------------------------------- *)

let json_escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let json_value buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | Str s ->
      Buffer.add_char buf '"';
      json_escape buf s;
      Buffer.add_char buf '"'
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")

let json_args buf args =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      json_escape buf k;
      Buffer.add_string buf "\":";
      json_value buf v)
    args;
  Buffer.add_char buf '}'

(* Sim time is in units of D; scale so 1 D renders as 1000 trace "µs",
   keeping sub-D phase structure visible at Perfetto's default zoom. *)
let ts_us ts = ts *. 1000.

let chrome_event buf ev =
  let is_flow = match ev.kind with Flow_start | Flow_end -> true | _ -> false in
  let args =
    if is_flow then List.filter (fun (k, _) -> k <> "id") ev.args else ev.args
  in
  Buffer.add_string buf "{\"name\":\"";
  json_escape buf ev.name;
  Buffer.add_string buf "\",\"cat\":\"";
  json_escape buf (if ev.cat = "" then "event" else ev.cat);
  Buffer.add_string buf "\",\"ph\":\"";
  Buffer.add_string buf (kind_glyph ev.kind);
  Buffer.add_string buf "\",\"ts\":";
  json_value buf (Float (ts_us ev.ts));
  Buffer.add_string buf ",\"pid\":0,\"tid\":";
  Buffer.add_string buf (string_of_int ev.pid);
  (match ev.kind with Instant -> Buffer.add_string buf ",\"s\":\"t\"" | _ -> ());
  if is_flow then begin
    Buffer.add_string buf ",\"id\":";
    (match List.assoc_opt "id" ev.args with
    | Some v -> json_value buf v
    | None -> Buffer.add_char buf '0');
    (* Bind the flow terminus to the enclosing slice so Perfetto draws
       the arrow into the receiver's span rather than a floating dot. *)
    if ev.kind = Flow_end then Buffer.add_string buf ",\"bp\":\"e\""
  end;
  if args <> [] then begin
    Buffer.add_string buf ",\"args\":";
    json_args buf args
  end;
  Buffer.add_char buf '}'

let metadata buf ~tid ~name ~meta =
  Buffer.add_string buf "{\"name\":\"";
  Buffer.add_string buf meta;
  Buffer.add_string buf "\",\"ph\":\"M\",\"pid\":0,\"tid\":";
  Buffer.add_string buf (string_of_int tid);
  Buffer.add_string buf ",\"args\":{\"name\":\"";
  json_escape buf name;
  Buffer.add_string buf "\"}}"

let to_chrome ?(process_name = "simulation") ?track_name t =
  let buf = Buffer.create 4096 in
  let track_name =
    match track_name with
    | Some f -> f
    | None -> fun pid -> Printf.sprintf "node %d" pid
  in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  metadata buf ~tid:0 ~name:process_name ~meta:"process_name";
  let tracks = Hashtbl.create 16 in
  Queue.iter
    (fun ev ->
      if not (Hashtbl.mem tracks ev.pid) then Hashtbl.replace tracks ev.pid ())
    t.buf;
  List.iter
    (fun pid ->
      Buffer.add_char buf ',';
      metadata buf ~tid:pid ~name:(track_name pid) ~meta:"thread_name")
    (List.sort compare (Hashtbl.fold (fun pid () acc -> pid :: acc) tracks []));
  Queue.iter
    (fun ev ->
      Buffer.add_char buf ',';
      chrome_event buf ev)
    t.buf;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let to_jsonl t =
  let buf = Buffer.create 4096 in
  Queue.iter
    (fun ev ->
      chrome_event buf ev;
      Buffer.add_char buf '\n')
    t.buf;
  Buffer.contents buf
