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

(* One shard per node, with exactly one writer: the node's own domain
   on rt, the engine on the sim. A shard stores only what the event is
   — kind, peer, flow id, time — in flat arrays behind the
   {!Recorder.Cursor} reserve / publish pair, so a record is a few
   plain stores and two atomic stores: no lock, no shared counter, no
   allocation. Flow ids are numbered per sender ([k·n + src + 1] for
   its k-th send), unique and positive without a shared counter.

   No clock is kept while recording. The readers ([events], [clock],
   [slice], [cone], [to_shiviz]) copy every shard's published window
   and replay it in a causal order, rebuilding each event's clock and
   index; they may run on another domain while the nodes write. *)
type shard = {
  cur : Recorder.Cursor.t;
  cap : int; (* retained slots; [max_int] when unbounded *)
  mutable ints : int array;
      (* slot s: [(peer lsl 2) lor kind] at 2s, flow id at 2s + 1 *)
  mutable ats : floatarray;
  mutable labels : string array; (* "" unless labelled (sim only) *)
  mutable sends : int; (* this node's sends so far: numbers its flows *)
}

type recorder = { n : int; shards : shard array }

let initial_slots = 64

let recorder ?cap ~n () =
  if n <= 0 then invalid_arg "Obs.Vclock.recorder: n must be positive";
  let cap, slots =
    match cap with
    | None -> (max_int, initial_slots)
    | Some c ->
        if c <= 0 then invalid_arg "Obs.Vclock.recorder: cap must be positive";
        (c, min c initial_slots)
  in
  let shard _ =
    {
      cur = Recorder.Cursor.create ();
      cap;
      ints = Array.make (2 * slots) 0;
      ats = Float.Array.make slots 0.;
      labels = Array.make slots "";
      sends = 0;
    }
  in
  { n; shards = Array.init n shard }

let nodes r = r.n

(* Shards start small. An unbounded one doubles when full; a capped one
   takes its full size at its first overflow, so a deployment's set-up
   allocates no ring before events need it, and growth leaves one small
   array behind rather than a ladder of large ones. A reader that has
   seen index [i] published also sees the arrays holding it: the swap
   happens before the publish of any index stored in the new arrays. *)
let grow sh =
  let slots = Float.Array.length sh.ats in
  let slots' = if sh.cap = max_int then 2 * slots else sh.cap in
  let ints = Array.make (2 * slots') 0 in
  Array.blit sh.ints 0 ints 0 (2 * slots);
  let ats = Float.Array.make slots' 0. in
  Float.Array.blit sh.ats 0 ats 0 slots;
  let labels = Array.make slots' "" in
  Array.blit sh.labels 0 labels 0 slots;
  sh.ints <- ints;
  sh.ats <- ats;
  sh.labels <- labels

let code_send = 0
and code_deliver = 1
and code_drop = 2
and code_local = 3

(* Reserves the next slot and writes all of it but the time; the
   caller stores the time and publishes. Split so that a time computed
   by [record_*_ns] reaches its float array without crossing a call,
   where it would be boxed. *)
let reserve sh ~code ~peer ~flow ~label =
  let i = Recorder.Cursor.reserve sh.cur in
  let s = i mod sh.cap in
  if s >= Float.Array.length sh.ats then grow sh;
  sh.ints.(2 * s) <- (peer lsl 2) lor code;
  sh.ints.((2 * s) + 1) <- flow;
  (* rt records no labels: leave the (empty) slot untouched *)
  if String.length label > 0 || String.length sh.labels.(s) > 0 then
    sh.labels.(s) <- label;
  i

let push sh ~code ~peer ~flow ~at ~label =
  let i = reserve sh ~code ~peer ~flow ~label in
  Float.Array.set sh.ats (i mod sh.cap) at;
  Recorder.Cursor.publish sh.cur i

let next_flow r sh src =
  let flow = (sh.sends * r.n) + src + 1 in
  sh.sends <- sh.sends + 1;
  flow

let record_send r ~src ~dst ~at ?(label = "") () =
  let sh = r.shards.(src) in
  let flow = next_flow r sh src in
  push sh ~code:code_send ~peer:dst ~flow ~at ~label;
  flow

let record_deliver r ~dst ~src ~flow ~at ?(label = "") () =
  push r.shards.(dst) ~code:code_deliver ~peer:src ~flow ~at ~label

let record_send_ns r ~src ~dst ~ns =
  let sh = r.shards.(src) in
  let flow = next_flow r sh src in
  let i = reserve sh ~code:code_send ~peer:dst ~flow ~label:"" in
  Float.Array.set sh.ats (i mod sh.cap) (Float.of_int ns *. 1e-9);
  Recorder.Cursor.publish sh.cur i;
  flow

let record_deliver_ns r ~dst ~src ~flow ~ns =
  let sh = r.shards.(dst) in
  let i = reserve sh ~code:code_deliver ~peer:src ~flow ~label:"" in
  Float.Array.set sh.ats (i mod sh.cap) (Float.of_int ns *. 1e-9);
  Recorder.Cursor.publish sh.cur i

let record_drop r ~dst ~src ~flow ~at ?(label = "") () =
  push r.shards.(dst) ~code:code_drop ~peer:src ~flow ~at ~label

let record_local r ~node ~at name =
  push r.shards.(node) ~code:code_local ~peer:0 ~flow:0 ~at ~label:name

let length r =
  Array.fold_left
    (fun acc sh -> acc + Recorder.Cursor.published sh.cur)
    0 r.shards

(* ---- reading: replay the shards into clocks ------------------------- *)

type raw = {
  r_code : int;
  r_peer : int;
  r_flow : int;
  r_at : float;
  r_label : string;
}

(* Node [i]'s retained window, oldest first, without the slots its
   writer lapped while they were copied. *)
let copy_shard sh =
  let head = Recorder.Cursor.published sh.cur in
  let ints = sh.ints and ats = sh.ats and labels = sh.labels in
  let lo = max 0 (head - sh.cap) in
  let raw =
    Array.init (head - lo) (fun k ->
        let s = (lo + k) mod sh.cap in
        let packed = ints.(2 * s) in
        {
          r_code = packed land 3;
          r_peer = packed lsr 2;
          r_flow = ints.((2 * s) + 1);
          r_at = Float.Array.get ats s;
          r_label = labels.(s);
        })
  in
  (* A reader descheduled mid-copy may find every copied slot lapped. *)
  let n = Array.length raw in
  let lapped = min n (Recorder.Cursor.intact_from sh.cur ~cap:sh.cap - lo) in
  if lapped <= 0 then raw else Array.sub raw lapped (n - lapped)

let kind_of_code code peer =
  match code with
  | 0 -> Send { dst = peer }
  | 1 -> Deliver { src = peer }
  | 2 -> Drop { src = peer }
  | _ -> Local

(* Replay the windows in a causal order: each node's events in program
   order, a [Deliver] after its [Send] when that [Send] is retained,
   ties broken by (at, node). Every event but a [Drop] ticks its node's
   clock, and a [Deliver] first merges the clock its sender had at the
   [Send]. A [Drop] happens at a crashed node, off its timeline: it
   neither ticks nor merges, so the clocks do not depend on whether the
   substrate logs the drop (the ideal sim does, the lossy one drops at
   the door). A [Deliver] whose [Send] fell out of the window
   merges nothing: happened-before is exact within the window. Returns
   the events in replay order (their [idx]) and each node's final
   clock. *)
let replay r =
  let logs = Array.map copy_shard r.shards in
  let sent = Hashtbl.create 1024 in
  Array.iter
    (Array.iter (fun ev ->
         if ev.r_code = code_send then Hashtbl.replace sent ev.r_flow None))
    logs;
  let clocks = Array.init r.n (fun _ -> make r.n) in
  let pos = Array.make r.n 0 in
  let ready i =
    let ev = logs.(i).(pos.(i)) in
    ev.r_code <> code_deliver
    || match Hashtbl.find_opt sent ev.r_flow with
       | Some None -> false
       | Some (Some _) | None -> true
  in
  (* The earliest head by (at, node), among the ready ones if [strict];
     program order plus send -> deliver edges form a DAG, so some head
     is always ready. *)
  let pick strict =
    let best = ref (-1) in
    for i = 0 to r.n - 1 do
      if pos.(i) < Array.length logs.(i) && ((not strict) || ready i) then
        match !best with
        | -1 -> best := i
        | b ->
            if logs.(i).(pos.(i)).r_at < logs.(b).(pos.(b)).r_at then best := i
    done;
    !best
  in
  let out = ref [] in
  let idx = ref 0 in
  let rec loop () =
    let i = match pick true with -1 -> pick false | i -> i in
    if i >= 0 then begin
      let ev = logs.(i).(pos.(i)) in
      pos.(i) <- pos.(i) + 1;
      let clk = clocks.(i) in
      if ev.r_code = code_deliver then
        Option.iter
          (fun src -> merge_into ~src ~dst:clk)
          (Option.join (Hashtbl.find_opt sent ev.r_flow));
      if ev.r_code <> code_drop then tick clk i;
      let vc = copy clk in
      if ev.r_code = code_send then Hashtbl.replace sent ev.r_flow (Some vc);
      out :=
        {
          idx = !idx;
          node = i;
          kind = kind_of_code ev.r_code ev.r_peer;
          flow = ev.r_flow;
          at = ev.r_at;
          vc;
          label = ev.r_label;
        }
        :: !out;
      incr idx;
      loop ()
    end
  in
  loop ();
  (List.rev !out, clocks)

let events r = fst (replay r)
let clock r i = (snd (replay r)).(i)

let happened_before a b = leq a.vc b.vc && not (equal a.vc b.vc)

let messages_below evs ~vc =
  List.filter
    (fun ev ->
      match ev.kind with
      | Send _ | Deliver _ -> leq ev.vc vc
      | Drop _ | Local -> false)
    evs

let slice r ~vc = messages_below (events r) ~vc

(* One replay serves both the clock and the events, so they come from
   the same window even while the nodes keep writing. *)
let cone r ~node =
  let evs, clocks = replay r in
  let vc =
    if node >= 0 && node < r.n then clocks.(node)
    else
      (* No single timeline to blame: the join of all clocks, the whole
         causal past of the window. *)
      Array.fold_left join (make r.n) clocks
  in
  messages_below evs ~vc

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
   because every event ticks (or at least has ticked) the acting
   node's own component. *)
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
