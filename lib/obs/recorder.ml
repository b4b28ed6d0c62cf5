(* Flight recorder: per-domain fixed-capacity ring buffers of trace
   events, written allocation-free by the owning domain and drained by a
   collector on any other thread — production-style "what did the system
   do in its last N thousand events" telemetry for the rt backend.

   Memory model (see DESIGN.md section 6b). Each ring has exactly one
   writer (the domain that owns it) and two cursors ({!Cursor}):

     resv : the writer bumps this BEFORE filling a slot,
     head : and this AFTER — slots with index < head are complete.

   Events live in parallel pre-allocated arrays ([floatarray] for
   timestamps and values, [int array] for the packed kind+code), so an
   emit is four plain stores bracketed by two atomic stores — no
   allocation, no CAS, no lock. The writer never waits for the
   collector: when the ring is full it simply overwrites the oldest
   slot, which is the flight-recorder contract (keep the freshest
   [capacity] events).

   The collector copies slots in [head - capacity, head) and then
   re-reads [resv]: any slot whose index is below [resv - capacity] may
   have been rewritten (possibly mid-read — torn) while it was being
   copied, so it is discarded. Because the writer reserves before it
   writes, this validation catches the in-progress overwrite the
   single-cursor scheme would miss. [Obs.Vclock]'s causal shards use
   the same cursors. *)

module Cursor = struct
  (* Padded: every node domain bumps its own cursors on every event, and
     two rings' cursors packed into one cache line would make the
     domains contend on it. *)
  type t = { resv : int Atomic.t; head : int Atomic.t }

  let create () =
    {
      resv = Padding.copy_as_padded (Atomic.make 0);
      head = Padding.copy_as_padded (Atomic.make 0);
    }

  (* Single writer, so the read-modify-write needs no CAS. From here
     the collector treats the slot this index aliases as suspect. *)
  let reserve c =
    let i = Atomic.get c.resv in
    Atomic.set c.resv (i + 1);
    i

  let publish c i = Atomic.set c.head (i + 1)
  let published c = Atomic.get c.head
  let intact_from c ~cap = Atomic.get c.resv - cap
end

type kind =
  | Span_begin
  | Span_end
  | Instant
  | Counter

let kind_to_int = function
  | Span_begin -> 0
  | Span_end -> 1
  | Instant -> 2
  | Counter -> 3

let kind_of_int = function
  | 0 -> Span_begin
  | 1 -> Span_end
  | 2 -> Instant
  | _ -> Counter

type ring = {
  pid : int;
  cap : int;
  ts : floatarray;
  packed : int array; (* (code lsl 3) lor kind *)
  value : floatarray;
  cur : Cursor.t;
}

type t = {
  rings : ring array;
  (* Code vocabulary: registered before concurrent execution starts
     (same discipline as Obs.Metrics registration), read-only after. *)
  mutable vocab : (string * string) array; (* code -> (name, cat) *)
}

let default_capacity = 8192

let create ?(capacity = default_capacity) ~n () =
  if capacity <= 0 then invalid_arg "Obs.Recorder.create: capacity <= 0";
  if n <= 0 then invalid_arg "Obs.Recorder.create: n <= 0";
  {
    rings =
      Array.init n (fun pid ->
          {
            pid;
            cap = capacity;
            ts = Float.Array.make capacity 0.;
            packed = Array.make capacity 0;
            value = Float.Array.make capacity 0.;
            cur = Cursor.create ();
          });
    vocab = [||];
  }

let rings t = Array.length t.rings
let ring t i = t.rings.(i)
let capacity r = r.cap

let intern t ?(cat = "rt") name =
  let found = ref (-1) in
  Array.iteri
    (fun i (n, _) -> if !found < 0 && n = name then found := i)
    t.vocab;
  if !found >= 0 then !found
  else begin
    t.vocab <- Array.append t.vocab [| (name, cat) |];
    Array.length t.vocab - 1
  end

let code_name t code =
  if code >= 0 && code < Array.length t.vocab then fst t.vocab.(code)
  else Printf.sprintf "code-%d" code

let code_cat t code =
  if code >= 0 && code < Array.length t.vocab then snd t.vocab.(code)
  else "rt"

(* ---- writer path (owning domain only) ------------------------------- *)

let emit r ~kind ~code ~ts ~value =
  let i = Cursor.reserve r.cur in
  let s = i mod r.cap in
  Float.Array.set r.ts s ts;
  r.packed.(s) <- (code lsl 3) lor kind_to_int kind;
  Float.Array.set r.value s value;
  Cursor.publish r.cur i

let span_begin r ~code ~ts = emit r ~kind:Span_begin ~code ~ts ~value:0.
let span_end r ~code ~ts = emit r ~kind:Span_end ~code ~ts ~value:0.
let instant r ~code ~ts ~value = emit r ~kind:Instant ~code ~ts ~value
let counter r ~code ~ts ~value = emit r ~kind:Counter ~code ~ts ~value

let emitted r = Cursor.published r.cur
let overwritten r = max 0 (Cursor.published r.cur - r.cap)

(* ---- collector ------------------------------------------------------- *)

type event = {
  e_seq : int; (* per-ring emission index (gaps = overwritten) *)
  e_pid : int;
  e_ts : float;
  e_kind : kind;
  e_code : int;
  e_value : float;
}

let drain_ring r =
  let head = Cursor.published r.cur in
  let lo = max 0 (head - r.cap) in
  let acc = ref [] in
  for i = head - 1 downto lo do
    let s = i mod r.cap in
    let packed = r.packed.(s) in
    acc :=
      {
        e_seq = i;
        e_pid = r.pid;
        e_ts = Float.Array.get r.ts s;
        e_kind = kind_of_int (packed land 7);
        e_code = packed lsr 3;
        e_value = Float.Array.get r.value s;
      }
      :: !acc
  done;
  (* Validate after the copy: slots the writer has lapped since may have
     been overwritten under us. *)
  let floor = Cursor.intact_from r.cur ~cap:r.cap in
  List.filter (fun ev -> ev.e_seq >= floor) !acc

let events t =
  let all = Array.to_list t.rings |> List.concat_map drain_ring in
  (* Stable merge by timestamp; per-ring order is already ts-monotone
     (each ring's clock reads are monotonic), ties keep pid order. *)
  List.stable_sort
    (fun a b ->
      match Float.compare a.e_ts b.e_ts with
      | 0 -> Int.compare a.e_pid b.e_pid
      | c -> c)
    all

let total_emitted t =
  Array.fold_left (fun acc r -> acc + emitted r) 0 t.rings

let total_overwritten t =
  Array.fold_left (fun acc r -> acc + overwritten r) 0 t.rings

(* ---- export: reuse the Obs.Trace vocabulary ------------------------- *)

(* [mul] rescales timestamps into the unit Trace expects (sim "D"
   units, rendered as 1 D = 1000 trace microseconds): rt wall-clock
   seconds use [~mul:1e3] so one second renders as one Perfetto
   millisecond-scale unit. *)
let to_trace ?(mul = 1.) t =
  let tr = Trace.create () in
  List.iter
    (fun ev ->
      let ts = ev.e_ts *. mul in
      let pid = ev.e_pid in
      let name = code_name t ev.e_code in
      let cat = code_cat t ev.e_code in
      match ev.e_kind with
      | Span_begin -> Trace.span_begin tr ~ts ~pid ~cat name
      | Span_end -> Trace.span_end tr ~ts ~pid ~cat name
      | Instant ->
          Trace.instant tr ~ts ~pid ~cat
            ~args:[ ("value", Trace.Float ev.e_value) ]
            name
      | Counter -> Trace.counter tr ~ts ~pid ~value:ev.e_value name)
    (events t);
  tr
