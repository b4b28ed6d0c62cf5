(* Telemetry vocabulary for the rt backend: one flight-recorder ring per
   node plus the interned event codes every instrumentation site uses.
   Codes are interned once at network creation (before any domain runs),
   so the hot paths carry only small ints into [Obs.Recorder] — four
   plain stores and two atomic stores per event, no allocation. *)

type t = {
  recorder : Obs.Recorder.t;
  now : unit -> float;  (* monotonic wall seconds, shared with Net *)
  op_update : int;
  op_scan : int;
  park_wait : int;
  mailbox_depth : int;
  batch_fuse : int;
  recover_replay : int;
  recover_rejoin : int;
}

type node = { ring : Obs.Recorder.ring; sh : t }

let create ?capacity ~n ~now () =
  let recorder = Obs.Recorder.create ?capacity ~n () in
  let i = Obs.Recorder.intern recorder in
  {
    recorder;
    now;
    op_update = i ~cat:"op" "op.update";
    op_scan = i ~cat:"op" "op.scan";
    park_wait = i ~cat:"sched" "park.wait";
    mailbox_depth = i ~cat:"sched" "mailbox.depth";
    batch_fuse = i ~cat:"op" "batch.fuse";
    recover_replay = i ~cat:"recover" "recover.replay";
    recover_rejoin = i ~cat:"recover" "recover.rejoin";
  }

let recorder t = t.recorder
let node t i = { ring = Obs.Recorder.ring t.recorder i; sh = t }
let now nd = nd.sh.now ()

(* Writer-path helpers: each must be called only by the domain that owns
   the node (see the single-writer contract in [Obs.Recorder]). *)

let update_begin nd =
  Obs.Recorder.span_begin nd.ring ~code:nd.sh.op_update ~ts:(nd.sh.now ())

let update_end nd =
  Obs.Recorder.span_end nd.ring ~code:nd.sh.op_update ~ts:(nd.sh.now ())

let scan_begin nd =
  Obs.Recorder.span_begin nd.ring ~code:nd.sh.op_scan ~ts:(nd.sh.now ())

let scan_end nd =
  Obs.Recorder.span_end nd.ring ~code:nd.sh.op_scan ~ts:(nd.sh.now ())

let park nd ~secs =
  Obs.Recorder.instant nd.ring ~code:nd.sh.park_wait ~ts:(nd.sh.now ())
    ~value:secs

let depth nd ~n =
  Obs.Recorder.counter nd.ring ~code:nd.sh.mailbox_depth ~ts:(nd.sh.now ())
    ~value:(float_of_int n)

let fuse nd ~n =
  Obs.Recorder.counter nd.ring ~code:nd.sh.batch_fuse ~ts:(nd.sh.now ())
    ~value:(float_of_int n)

(* The WAL replay runs on the restarter thread while the node's domain
   is dead; the fresh domain emits the span retroactively with the
   measured timestamps, preserving the single-writer contract. *)
let replay nd ~t0 ~t1 =
  Obs.Recorder.span_begin nd.ring ~code:nd.sh.recover_replay ~ts:t0;
  Obs.Recorder.span_end nd.ring ~code:nd.sh.recover_replay ~ts:t1

let rejoin_begin nd =
  Obs.Recorder.span_begin nd.ring ~code:nd.sh.recover_rejoin
    ~ts:(nd.sh.now ())

let rejoin_end nd =
  Obs.Recorder.span_end nd.ring ~code:nd.sh.recover_rejoin ~ts:(nd.sh.now ())

(* Messages are not written to the rings: the causal log already holds
   each send and delivery with its node, time and flow id, so the export
   draws the [net.msg] arrows from it. Every retained [Send] opens a
   flow; a [Deliver] closes one only when its [Send] is retained too, so
   no arrow is drawn to a head without a tail. The log comes in a
   causal replay order, not sorted by [at], so it is sorted here; then
   one merge with the (sorted) ring events keeps the trace in
   timestamp order. *)
let to_trace ?causal rc =
  let ms = 1e3 (* wall seconds -> Trace units, 1 s renders as 1000 *) in
  let rings = Obs.Trace.events (Obs.Recorder.to_trace ~mul:ms rc) in
  let flows =
    match causal with
    | None -> []
    | Some vr ->
        let log = Obs.Vclock.events vr in
        let sent = Hashtbl.create 4096 in
        List.iter
          (fun (ev : Obs.Vclock.event) ->
            match ev.kind with
            | Send _ -> Hashtbl.replace sent ev.flow ()
            | _ -> ())
          log;
        List.filter
          (fun (ev : Obs.Vclock.event) ->
            match ev.kind with
            | Send _ -> true
            | Deliver _ -> Hashtbl.mem sent ev.flow
            | Drop _ | Local -> false)
          log
        |> List.stable_sort (fun (a : Obs.Vclock.event) b ->
               Float.compare a.at b.at)
  in
  let tr = Obs.Trace.create () in
  let flow (ev : Obs.Vclock.event) =
    let arrow =
      match ev.kind with
      | Send _ -> Obs.Trace.flow_start
      | _ -> Obs.Trace.flow_end
    in
    arrow tr ~ts:(ev.at *. ms) ~pid:ev.node ~id:ev.flow ~cat:"net" "net.msg"
  in
  let rec merge rs fs =
    match (rs, fs) with
    | (r : Obs.Trace.event) :: rs', (f : Obs.Vclock.event) :: fs' ->
        if f.at *. ms < r.ts then begin
          flow f;
          merge rs fs'
        end
        else begin
          Obs.Trace.emit tr r;
          merge rs' fs
        end
    | rs, [] -> List.iter (Obs.Trace.emit tr) rs
    | [], fs -> List.iter flow fs
  in
  merge rings flows;
  tr
