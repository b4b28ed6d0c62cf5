type t = int array

let make n =
  if n <= 0 then invalid_arg "Obs.Vclock.make: size must be positive";
  Array.make n 0

let of_array a = Array.copy a
let to_array c = Array.copy c
let size = Array.length
let copy = Array.copy
let get c i = c.(i)
let tick c i = c.(i) <- c.(i) + 1

let merge_into ~src ~dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Obs.Vclock.merge_into: size mismatch";
  Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src

let join a b =
  if Array.length a <> Array.length b then
    invalid_arg "Obs.Vclock.join: size mismatch";
  Array.mapi (fun i v -> max v b.(i)) a

let leq a b =
  if Array.length a <> Array.length b then
    invalid_arg "Obs.Vclock.leq: size mismatch";
  let ok = ref true in
  Array.iteri (fun i v -> if v > b.(i) then ok := false) a;
  !ok

let equal a b = a = b

let compare_vc a b =
  let le = leq a b and ge = leq b a in
  if le && ge then `Equal
  else if le then `Before
  else if ge then `After
  else `Concurrent

let pp ppf c =
  Format.pp_print_char ppf '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Format.pp_print_char ppf ' ';
      Format.pp_print_int ppf v)
    c;
  Format.pp_print_char ppf ']'

(* ---- the causal event log -------------------------------------------- *)

type kind =
  | Send of { dst : int }
  | Deliver of { src : int }
  | Drop of { src : int }
  | Local

type event = {
  idx : int;
  node : int;
  kind : kind;
  flow : int;
  at : float;
  vc : t;
  label : string;
}

(* The recorder is sharded per node: node [i]'s clock and log live in
   their own shard under their own lock. On the rt backend every node
   domain (and every in-flight client operation) stamps concurrently —
   a single recorder-wide mutex serialises the whole message plane
   through one cache line and, on a loaded box, parks domains in the
   kernel on every message. A shard is only ever contended by the few
   threads acting {e as} that node (its handler domain and its single
   outstanding operation), so the common case is an uncontended lock.
   Cross-shard event ordering is preserved by drawing [idx] from one
   atomic counter while holding the shard lock: per-shard log order
   agrees with [idx] order, and a deliver always draws a larger [idx]
   than the send it answers.

   Capped shards keep their window in flat preallocated arrays (one
   slot per event, clocks blitted into a flattened [cap × n] block):
   the rt backend stamps >100k events/s, and per-event heap records —
   all retained until truncation, hence all promoted to the major
   heap — cost more in allocation and GC than the stamping itself.
   The flat ring makes the stamp hot path allocation-free; [event]
   records are materialised only at dump time. *)
type ring = {
  rg_cap : int;
  mutable rg_len : int; (* total pushed; the slot cursor is len mod cap *)
  rg_idx : int array;
  rg_kind : int array; (* 0 send / 1 deliver / 2 drop / 3 local *)
  rg_peer : int array;
  rg_flow : int array;
  rg_at : float array;
  rg_vc : int array; (* slot s's clock at rg_vc.[s*n .. s*n+n-1] *)
  mutable rg_labels : (int * string) list;
      (* (idx, label) for the rare labelled events — rt stamps carry no
         labels, sim labelled runs use unbounded shards *)
}

type store =
  | Unbounded of { mutable log : event list (* newest first *) }
  | Ring of ring

type shard = { s_lock : Mutex.t; s_clock : t; s_store : store }

type recorder = {
  n : int;
  shards : shard array;
  next_flow : int Atomic.t;
  next_idx : int Atomic.t;
}

let recorder ?cap ~n () =
  if n <= 0 then invalid_arg "Obs.Vclock.recorder: n must be positive";
  let store () =
    match cap with
    | None -> Unbounded { log = [] }
    | Some c ->
        if c <= 0 then invalid_arg "Obs.Vclock.recorder: cap must be positive";
        Ring
          {
            rg_cap = c;
            rg_len = 0;
            rg_idx = Array.make c 0;
            rg_kind = Array.make c 0;
            rg_peer = Array.make c 0;
            rg_flow = Array.make c 0;
            rg_at = Array.make c 0.0;
            rg_vc = Array.make (c * n) 0;
            rg_labels = [];
          }
  in
  {
    n;
    shards =
      Array.init n (fun _ ->
          { s_lock = Mutex.create (); s_clock = make n; s_store = store () });
    next_flow = Atomic.make 1;
    next_idx = Atomic.make 0;
  }

let nodes r = r.n

let clock r i =
  let s = r.shards.(i) in
  Mutex.lock s.s_lock;
  let c = copy s.s_clock in
  Mutex.unlock s.s_lock;
  c

let kind_of_code code peer =
  match code with
  | 0 -> Send { dst = peer }
  | 1 -> Deliver { src = peer }
  | 2 -> Drop { src = peer }
  | _ -> Local

(* Callers hold [s.s_lock]. The kind travels as its ring code and peer,
   so a capped shard builds no [kind] value on the hot path. *)
let push r s ~node ~code ~peer ~flow ~at ~label =
  let idx = Atomic.fetch_and_add r.next_idx 1 in
  match s.s_store with
  | Unbounded u ->
      let kind = kind_of_code code peer in
      u.log <- { idx; node; kind; flow; at; vc = copy s.s_clock; label } :: u.log
  | Ring rg ->
      let slot = rg.rg_len mod rg.rg_cap in
      rg.rg_idx.(slot) <- idx;
      rg.rg_kind.(slot) <- code;
      rg.rg_peer.(slot) <- peer;
      rg.rg_flow.(slot) <- flow;
      rg.rg_at.(slot) <- at;
      Array.blit s.s_clock 0 rg.rg_vc (slot * r.n) r.n;
      rg.rg_len <- rg.rg_len + 1;
      if label <> "" then begin
        rg.rg_labels <- (idx, label) :: rg.rg_labels;
        (* keep only labels still inside the retained window *)
        let floor_idx = idx - rg.rg_cap in
        if List.length rg.rg_labels > rg.rg_cap then
          rg.rg_labels <-
            List.filter (fun (i, _) -> i > floor_idx) rg.rg_labels
      end

(* A stamp is one array: the sender's clock after the send, then the
   flow id. Manual loops: the closure-based [Array.iteri] costs on a
   path run once per delivered message. Caller holds the shard lock. *)
let merge_tick clk ~(stamp : int array) ~me =
  let n = Array.length clk in
  for i = 0 to n - 1 do
    if stamp.(i) > clk.(i) then clk.(i) <- stamp.(i)
  done;
  clk.(me) <- clk.(me) + 1

let stamp_flow stamp = stamp.(Array.length stamp - 1)

let record_send r ~src ~dst ~at ?(label = "") () =
  let s = r.shards.(src) in
  Mutex.lock s.s_lock;
  tick s.s_clock src;
  let flow = Atomic.fetch_and_add r.next_flow 1 in
  push r s ~node:src ~code:0 ~peer:dst ~flow ~at ~label;
  let stamp = Array.make (r.n + 1) flow in
  Array.blit s.s_clock 0 stamp 0 r.n;
  Mutex.unlock s.s_lock;
  stamp

let record_deliver r ~dst ~src ~stamp ~at ?(label = "") () =
  let s = r.shards.(dst) in
  Mutex.lock s.s_lock;
  merge_tick s.s_clock ~stamp ~me:dst;
  push r s ~node:dst ~code:1 ~peer:src ~flow:(stamp_flow stamp) ~at ~label;
  Mutex.unlock s.s_lock

let record_drop r ~dst ~src ~stamp ~at ?(label = "") () =
  let s = r.shards.(dst) in
  Mutex.lock s.s_lock;
  push r s ~node:dst ~code:2 ~peer:src ~flow:(stamp_flow stamp) ~at ~label;
  Mutex.unlock s.s_lock

let record_local r ~node ~at name =
  let s = r.shards.(node) in
  Mutex.lock s.s_lock;
  tick s.s_clock node;
  push r s ~node ~code:3 ~peer:0 ~flow:0 ~at ~label:name;
  Mutex.unlock s.s_lock

(* Snapshot every shard's log (each under its lock, ring slots
   materialised back into [event] records), then merge by the global
   index. Dump-time only — never on the message hot path. *)
let gather r =
  let materialise node s =
    match s.s_store with
    | Unbounded u -> u.log
    | Ring rg ->
        let count = min rg.rg_len rg.rg_cap in
        let evs = ref [] in
        for k = rg.rg_len - count to rg.rg_len - 1 do
          let slot = k mod rg.rg_cap in
          let idx = rg.rg_idx.(slot) in
          let label =
            match rg.rg_labels with
            | [] -> ""
            | ls -> Option.value ~default:"" (List.assoc_opt idx ls)
          in
          evs :=
            {
              idx;
              node;
              kind = kind_of_code rg.rg_kind.(slot) rg.rg_peer.(slot);
              flow = rg.rg_flow.(slot);
              at = rg.rg_at.(slot);
              vc = Array.sub rg.rg_vc (slot * r.n) r.n;
              label;
            }
            :: !evs
        done;
        !evs
  in
  let acc = ref [] in
  Array.iteri
    (fun i s ->
      Mutex.lock s.s_lock;
      let l = materialise i s in
      Mutex.unlock s.s_lock;
      acc := List.rev_append l !acc)
    r.shards;
  !acc

let events r =
  List.sort (fun a b -> Int.compare a.idx b.idx) (gather r)

let length r = Atomic.get r.next_idx

let happened_before a b = leq a.vc b.vc && not (equal a.vc b.vc)

let slice r ~vc =
  List.sort
    (fun a b -> Int.compare a.idx b.idx)
    (List.filter
       (fun ev ->
         match ev.kind with
         | Send _ | Deliver _ -> leq ev.vc vc
         | _ -> false)
       (gather r))

let cone r ~node =
  let vc =
    if node >= 0 && node < r.n then clock r node
    else begin
      (* No single timeline to blame: the join of all clocks, the whole
         causal past of the system so far. *)
      let acc = make r.n in
      for i = 0 to r.n - 1 do
        merge_into ~src:(clock r i) ~dst:acc
      done;
      acc
    end
  in
  slice r ~vc

let pp_kind ppf = function
  | Send { dst } -> Format.fprintf ppf "send->n%d" dst
  | Deliver { src } -> Format.fprintf ppf "deliver<-n%d" src
  | Drop { src } -> Format.fprintf ppf "drop<-n%d" src
  | Local -> Format.pp_print_string ppf "local"

let pp_event ppf ev =
  Format.fprintf ppf "#%-4d t=%-8.2f n%d %a" ev.idx ev.at ev.node pp_kind
    ev.kind;
  if ev.flow > 0 then Format.fprintf ppf " flow=%d" ev.flow;
  if ev.label <> "" then Format.fprintf ppf " %s" ev.label;
  Format.fprintf ppf " %a" pp ev.vc

(* ShiViz format: one "<host> <clock-json> <description>" line per
   event; hosts must appear as keys of their own clocks, which they do
   because every recorded event ticks (or at least has ticked) the
   acting node's own component. *)
let to_shiviz r =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (Printf.sprintf "n%d {" ev.node);
      let first = ref true in
      Array.iteri
        (fun i v ->
          if v > 0 then begin
            if not !first then Buffer.add_char buf ',';
            first := false;
            Buffer.add_string buf (Printf.sprintf "\"n%d\":%d" i v)
          end)
        ev.vc;
      Buffer.add_string buf "} ";
      (match ev.kind with
      | Send { dst } -> Buffer.add_string buf (Printf.sprintf "send to n%d" dst)
      | Deliver { src } ->
          Buffer.add_string buf (Printf.sprintf "deliver from n%d" src)
      | Drop { src } ->
          Buffer.add_string buf (Printf.sprintf "drop from n%d" src)
      | Local -> Buffer.add_string buf "local");
      if ev.flow > 0 then Buffer.add_string buf (Printf.sprintf " #%d" ev.flow);
      if ev.label <> "" then begin
        Buffer.add_char buf ' ';
        String.iter
          (fun c -> Buffer.add_char buf (if c = '\n' then ' ' else c))
          ev.label
      end;
      Buffer.add_string buf (Printf.sprintf " (t=%g)" ev.at);
      Buffer.add_char buf '\n')
    (events r);
  Buffer.contents buf
