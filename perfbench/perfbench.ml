(* The repository's benchmark: four fixed-op-count, closed-loop
   workloads over the rt, dist and sim backends, each run checked by the
   A0-A4 / S1-S3 checkers. Every layer is timed from outside, around the
   calls this file makes into the libraries' public functions. See
   NOTES.md for why the workloads and metrics are what they are.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
     perfbench.exe node ...      (a dist worker; spawned by the dist workload)

   The last stdout line is one JSON object: correct, attempted, failed
   and metrics (end-to-end ones with --trace 0, per-layer ones with
   --trace 1). Exit code 1 when a history fails its checker. *)

let now_ns = Dist.Net.now_ns
let ms_of_ns d = float_of_int d *. 1e-6
let s_of_ns d = float_of_int d *. 1e-9
let out_dir = ".perfbench"

let rec mkdir_p d =
  if d <> "." && d <> "" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Statistics.                                                         *)

(* Linear interpolation between closest ranks (NumPy's default). *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
      in
      let v = go () in
      close_in ic;
      v

(* Process CPU seconds, own threads/domains plus reaped children. *)
let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime

(* ------------------------------------------------------------------ *)
(* Spans (traced runs only): kept in memory, written when the run ends. *)

type span = {
  sid : int;
  name : string;
  parent : int;
  op : int;
  t0 : int;
  t1 : int;
}

let tracing = ref false
let spans_mu = Mutex.create ()
let spans : span list ref = ref []
let next_sid = Atomic.make 1

let fresh_sid () = if !tracing then Atomic.fetch_and_add next_sid 1 else 0

let record ?(sid = 0) ?(parent = 0) ?(op = -1) name t0 t1 =
  if !tracing then begin
    let sid = if sid = 0 then fresh_sid () else sid in
    let s = { sid; name; parent; op; t0; t1 } in
    Mutex.lock spans_mu;
    spans := s :: !spans;
    Mutex.unlock spans_mu
  end

(* Self time of each span: its duration minus the union of its
   children's intervals (clipped to it). Summed per span name. *)
let self_times all =
  let kids = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add kids s.parent s) all;
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let ivs =
        Hashtbl.find_all kids s.sid
        |> List.map (fun c -> (max c.t0 s.t0, min c.t1 s.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) ivs
      in
      let self = s.t1 - s.t0 - covered in
      let n, tot = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0) in
      Hashtbl.replace tbl s.name (n + 1, tot + self))
    all;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let dump_spans path all =
  let oc = open_out path in
  let base = List.fold_left (fun m s -> min m s.t0) max_int all in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"op\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.sid s.name s.parent s.op (s.t0 - base) (s.t1 - base))
    (List.sort (fun a b -> compare (a.t0, a.sid) (b.t0, b.sid)) all);
  close_out oc

(* ------------------------------------------------------------------ *)
(* What one repetition reports.                                        *)

(* The per-layer metrics every workload reports (the --trace 1 set).
   A layer a workload does not cross reads 0, and only count or ratio
   metrics can be such layers: every time metric is measured on every
   workload. *)
let per_layer_units =
  [
    ("handoff_share_p50", "1");
    ("proto_update_ms_p50", "ms");
    ("proto_scan_ms_p50", "ms");
    ("history_ops_at_window", "count");
    ("msgs_per_op", "1");
    ("rounds_per_update_p50", "1");
    ("rounds_per_update_p99", "1");
    ("lattice_good_ratio", "1");
    ("lattice_borrowed_ratio", "1");
    ("wire_per_logical", "1");
    ("retransmits_per_op", "1");
    ("engine_steps_per_op", "1");
    ("monitor_events_checked", "count");
    ("monitor_lag_at_stop", "count");
    ("refused_attempts", "count");
    ("wire_encode_ns", "ns");
    ("wire_decode_ns", "ns");
    ("wal_records", "count");
    ("wal_append_us", "us");
    ("wal_replay_ms", "ms");
    ("check_s", "s");
    ("cpu_s_per_kop", "s");
    ("wall_s_per_kop", "s");
    ("trace_overhead", "1");
    ("cpu_speed_factor", "1");
  ]

let end_to_end_units =
  [
    ("throughput_ops_s", "1/s");
    ("update_p50_ms", "ms");
    ("update_p99_ms", "ms");
    ("scan_p50_ms", "ms");
    ("scan_p99_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

type rep = {
  setup_s : float;
  window_s : float;  (** throughput denominator *)
  completed : int;
  upd_ms : float list;  (** client-observed latency per completed op *)
  scan_ms : float list;
  attempted : int;
  rejected : int;  (** refused up front: nothing ran (dist: retried elsewhere) *)
  aborted : int;  (** in flight when the connection or node died *)
  failed : int;
  errors : string list;  (** checker / invariant failures *)
  layer : (string * float) list;
  info : (string * float * string) list;
      (** workload-specific numbers, printed but not in the JSON *)
  traced : bool;
  speed : float;
      (** calibration time over its reference around this rep: > 1 when
          the machine ran slower than the reference *)
}

(* A completed client operation: client-clock stamps and the protocol
   interval the program stamped for it. *)
type kind = Upd | Scn

type op = {
  kind : kind;
  c_inv : int;
  c_resp : int;
  p_inv : int;  (** same clock as [c_inv] *)
  p_resp : int;
}

(* The split of client latency into protocol interval and the rest
   (submission, queueing, sockets: the handoff). *)
let client_split ops =
  let upd = List.filter (fun o -> o.kind = Upd) ops
  and scn = List.filter (fun o -> o.kind = Scn) ops in
  let proto o = ms_of_ns (o.p_resp - o.p_inv) in
  let handoff o = ms_of_ns (o.c_resp - o.c_inv - (o.p_resp - o.p_inv)) in
  let share o =
    let c = o.c_resp - o.c_inv in
    if c <= 0 then 0. else ratio (c - (o.p_resp - o.p_inv)) c
  in
  ( [
      ("handoff_share_p50", median (List.map share ops));
      ("proto_update_ms_p50", median (List.map proto upd));
      ("proto_scan_ms_p50", median (List.map proto scn));
    ],
    [
      ("handoff_ms_p50", median (List.map handoff ops), "ms");
      ("handoff_ms_p99", quantile (List.map handoff ops) 0.99, "ms");
    ],
    List.map (fun o -> ms_of_ns (o.c_resp - o.c_inv)) upd,
    List.map (fun o -> ms_of_ns (o.c_resp - o.c_inv)) scn )

(* ------------------------------------------------------------------ *)
(* Wire codec and WAL, timed on the run's own op stream.               *)

(* Encode and decode one Req and one Resp frame per completed op, as
   the dist client and node exchange them; ns per frame. *)
let time_wire ~parent (frames : Dist.Wire.frame list) =
  let frames = Array.of_list frames in
  let nf = Array.length frames in
  if nf = 0 then (nan, nan)
  else begin
    let passes = max 1 (10_000 / nf) in
    let enc = ref [||] in
    let t0 = now_ns () in
    for _ = 1 to passes do
      enc := Array.map Dist.Wire.encode frames
    done;
    let t1 = now_ns () in
    record ~parent "wire.encode" t0 t1;
    let bad = ref 0 in
    for _ = 1 to passes do
      Array.iter
        (fun s ->
          match Dist.Wire.decode s ~pos:0 with Ok _ -> () | Error _ -> incr bad)
        !enc
    done;
    let t2 = now_ns () in
    record ~parent "wire.decode" t1 t2;
    if !bad > 0 then failwith "wire: a frame failed to decode";
    let per d = float_of_int d /. float_of_int (passes * nf) in
    (per (t1 - t0), per (t2 - t1))
  end

let frames_of_ops ops =
  List.concat
    (List.mapi
       (fun rid (o, snap) ->
         let op, result =
           match snap with
           | None -> (Dist.Wire.Op_update rid, Dist.Wire.R_update_done)
           | Some s -> (Dist.Wire.Op_scan, Dist.Wire.R_scan s)
         in
         [
           Dist.Wire.Req { rid; op };
           Dist.Wire.Resp { rid; t_inv = o.p_inv; t_resp = o.p_resp; result };
         ])
       ops)

let time_replay ~parent path =
  let t0 = now_ns () in
  let r = Persist.Log.replay_file path in
  let t1 = now_ns () in
  record ~parent "wal.replay" t0 t1;
  match r with
  | Ok { records; tail } ->
      let torn =
        match tail with
        | Persist.Log.Clean -> 0
        | Persist.Log.Torn { dropped_bytes; _ } -> dropped_bytes
      in
      (records, ms_of_ns (t1 - t0), torn)
  | Error e -> failwith ("wal: " ^ e)

(* Append the records to a fresh log, then replay it: us per appended
   record, ms for the replay. *)
let time_wal ~parent ~path (records : int Persist.Record.t list) =
  (try Sys.remove path with Sys_error _ -> ());
  let w = Persist.Log.create_writer path in
  let t0 = now_ns () in
  List.iter (Persist.Log.append w) records;
  let t1 = now_ns () in
  Persist.Log.close_writer w;
  record ~parent "wal.append" t0 t1;
  let replayed, t_replay, _ = time_replay ~parent path in
  if List.length replayed <> List.length records then
    failwith "wal: replay lost records";
  let n = max 1 (List.length records) in
  (float_of_int (t1 - t0) /. 1e3 /. float_of_int n, t_replay)

(* The mint records an EQ-ASO run writes: one Entry per update. *)
let mint_records h =
  History.ops h
  |> List.filter History.is_update
  |> List.mapi (fun i (o : History.op) ->
         Persist.Record.Entry
           { tag = i + 1; writer = o.node; value = History.update_value o })

let unique_values h =
  let seen = Hashtbl.create 4096 in
  List.for_all
    (fun o ->
      (not (History.is_update o))
      ||
      let v = History.update_value o in
      if Hashtbl.mem seen v then false
      else (
        Hashtbl.add seen v ();
        true))
    (History.ops h)

(* The correctness gate: the history's event stream through the
   streaming checker, A0-A4 (Atomic, EQ-ASO) or S1-S3 (Sequential, SSO),
   plus unique update values. Returns the checker's seconds. The batch
   [Checker.Conditions.check_sequential] is not used: it took 24 s on a
   4000-op dist history. *)
let check_history ~parent ~err ~mode ~n h =
  let m = Obs.Monitor.create ~mode ~n () in
  let t0 = now_ns () in
  let rec go = function
    | [] -> ()
    | ev :: rest -> (
        match Obs.Monitor.feed m ev with
        | Ok () -> go rest
        | Error v -> err (Format.asprintf "checker: %a" Obs.Monitor.pp_violation v))
  in
  go (Checker.Feed.events h);
  let t1 = now_ns () in
  record ~parent "checker" t0 t1;
  if not (unique_values h) then err "update values not unique";
  s_of_ns (t1 - t0)

let counter snap name = Option.value (Obs.Metrics.find_count snap name) ~default:0

let samples_from snap name ~skip =
  match Obs.Metrics.find_samples snap name with
  | None -> []
  | Some l -> List.filteri (fun i _ -> i >= skip) l

(* ------------------------------------------------------------------ *)
(* rt: Rt.Service with EQ-ASO, n=3, f=1, recorder and live monitor on. *)

let rt_clients = 2

let rt_rep ~seed ~rep ~prefill ~window ~scan_fraction =
  let root = fresh_sid () in
  let t0 = now_ns () in
  let s =
    Rt.Service.create ~recorder:true ~online:true ~algo:Rt.Service.Eq_aso ~n:3
      ~f:1 ()
  in
  Rt.Service.start s;
  let t1 = now_ns () in
  record ~parent:root "rt.setup" t0 t1;
  let next_value = Array.init rt_clients (fun c -> c) in
  (* Per client, in the order issued: [Ok (kind, scan result, t_inv, t_resp)],
     or [Error (`Rejected | `Aborted)]. *)
  let logs = Array.make rt_clients [] in
  let phase ~name ~ops ~scan_fraction ~salt =
    let sid = fresh_sid () in
    let t0 = now_ns () in
    let threads =
      Array.init rt_clients (fun c ->
          let rng = Random.State.make [| seed; rep; c; salt |] in
          let kinds =
            Array.init (ops / rt_clients) (fun _ ->
                if Random.State.float rng 1.0 < scan_fraction then Scn else Upd)
          in
          Thread.create
            (fun () ->
              let acc = ref [] in
              Array.iter
                (fun kind ->
                  let ti = now_ns () in
                  let res =
                    match kind with
                    | Upd -> (
                        let v = next_value.(c) in
                        next_value.(c) <- v + rt_clients;
                        match Rt.Service.update s ~node:c v with
                        | `Done -> Ok None
                        | (`Rejected | `Aborted) as e -> Error e)
                    | Scn -> (
                        match Rt.Service.scan s ~node:c with
                        | `Snap a -> Ok (Some a)
                        | (`Rejected | `Aborted) as e -> Error e)
                  in
                  let tr = now_ns () in
                  acc :=
                    Result.map (fun snap -> (kind, snap, ti, tr)) res :: !acc)
                kinds;
              logs.(c) <- logs.(c) @ List.rev !acc)
            ())
    in
    Array.iter Thread.join threads;
    let t1 = now_ns () in
    record ~sid ~parent:root name t0 t1;
    (sid, t1 - t0)
  in
  if prefill > 0 then begin
    ignore (phase ~name:"rt.prefill" ~ops:prefill ~scan_fraction:0. ~salt:1);
    (* Let the live monitor catch up and the heap settle, so the window
       does not pay for the pre-fill. *)
    Option.iter
      (fun lm ->
        while Rt.Live_monitor.lag lm > 0 do
          Thread.delay 0.001
        done)
      (Rt.Service.live_monitor s);
    Gc.compact ()
  end;
  let hist_at_window = List.length (History.ops (Rt.Service.history s)) in
  let snap0 = Rt.Service.stats_snapshot s in
  let cpu0 = cpu_s () in
  let window_sid, window_ns =
    phase ~name:"rt.window" ~ops:window ~scan_fraction ~salt:2
  in
  let cpu = cpu_s () -. cpu0 in
  let snap1 = Rt.Service.stats_snapshot s in
  let lm = Rt.Service.live_monitor s in
  let lag = match lm with Some lm -> Rt.Live_monitor.lag lm | None -> 0 in
  let t_stop = now_ns () in
  Rt.Service.stop s;
  record ~parent:root "rt.stop" t_stop (now_ns ());
  let h = Rt.Service.history s in
  let errors = ref [] in
  (match Option.bind lm Rt.Live_monitor.tripped with
  | Some v ->
      errors := Format.asprintf "live monitor: %a" Rt.Live_monitor.pp_verdict v :: !errors
  | None -> ());
  let events_checked =
    match lm with Some lm -> Rt.Live_monitor.events_checked lm | None -> 0
  in
  let count e =
    Array.fold_left (fun a l -> a + List.length (List.filter (( = ) (Error e)) l)) 0 logs
  in
  let rejected = count `Rejected and aborted = count `Aborted in
  (* Each node's history is exactly its one client's completed ops, in
     order: pair them to place the protocol interval inside the client
     span. The history clock has its own origin; [offset] is the tightest
     shift consistent with every interval nesting in its client span. *)
  let window_ops = ref [] in
  let hops = History.ops h in
  let matched =
    Array.mapi
      (fun c log ->
        let mine = List.filter (fun (o : History.op) -> o.node = c) hops in
        if List.length log <> List.length mine || List.exists Result.is_error log then begin
          errors := Printf.sprintf "rt: client %d lost requests" c :: !errors;
          []
        end
        else
          List.map2
            (fun l (o : History.op) ->
              match (l, o.resp) with
              | Ok (kind, snap, ti, tr), Some resp -> (kind, snap, ti, tr, o.inv, resp)
              | _ -> assert false)
            log mine)
      logs
  in
  let to_ns x = int_of_float (x *. 1e9) in
  let offset =
    Array.fold_left
      (List.fold_left (fun acc (_, _, ti, _, hi, _) -> max acc (ti - to_ns hi)))
      min_int matched
  in
  Array.iter
    (fun m ->
      let n = List.length m in
      List.iteri
        (fun i (kind, snap, ti, tr, hi, hr) ->
          if i >= n - (window / rt_clients) then begin
            let p_inv = min tr (max ti (offset + to_ns hi)) in
            let p_resp = max p_inv (min tr (offset + to_ns hr)) in
            window_ops :=
              ({ kind; c_inv = ti; c_resp = tr; p_inv; p_resp }, snap)
              :: !window_ops
          end)
        m)
    matched;
  let with_snaps = !window_ops in
  let ops = List.map fst with_snaps in
  List.iteri
    (fun i o ->
      let sid = fresh_sid () in
      record ~sid ~parent:window_sid ~op:i
        (if o.kind = Upd then "client.update" else "client.scan")
        o.c_inv o.c_resp;
      record ~parent:sid ~op:i "rt.protocol" o.p_inv o.p_resp)
    ops;
  let check_s =
    check_history ~parent:root
      ~err:(fun e -> errors := e :: !errors)
      ~mode:Obs.Monitor.Atomic ~n:3 h
  in
  let completed = List.length ops in
  let split_layer, split_info, upd_ms, scan_ms = client_split ops in
  let enc, dec = time_wire ~parent:root (frames_of_ops with_snaps) in
  let mints = mint_records h in
  let wal_us, wal_ms =
    time_wal ~parent:root ~path:(Filename.concat out_dir "rt-mints.wal") mints
  in
  let d name = counter snap1 name - counter snap0 name in
  let rounds =
    samples_from snap1 "aso.rounds_per_update"
      ~skip:(List.length (samples_from snap0 "aso.rounds_per_update" ~skip:0))
  in
  let window_s = s_of_ns window_ns in
  record ~sid:root "rep" t0 (now_ns ());
  {
    setup_s = s_of_ns (t1 - t0);
    window_s;
    completed;
    upd_ms;
    scan_ms;
    attempted = window;
    rejected;
    aborted;
    failed = (if !errors = [] then 0 else window);
    errors = !errors;
    layer =
      split_layer
      @ [
          ("history_ops_at_window", float_of_int hist_at_window);
          ("msgs_per_op", ratio (d "net.sent") completed);
          ("rounds_per_update_p50", median rounds);
          ("rounds_per_update_p99", quantile rounds 0.99);
          ("lattice_good_ratio", ratio (d "aso.good_lattice_ops") (d "aso.lattice_ops"));
          ( "lattice_borrowed_ratio",
            ratio (d "aso.indirect_views") (d "aso.direct_views" + d "aso.indirect_views") );
          ("wire_per_logical", 1.);
          ("retransmits_per_op", 0.);
          ("engine_steps_per_op", 0.);
          ("monitor_events_checked", float_of_int events_checked);
          ("monitor_lag_at_stop", float_of_int lag);
          ("refused_attempts", 0.);
          ("wire_encode_ns", enc);
          ("wire_decode_ns", dec);
          ("wal_records", float_of_int (List.length mints));
          ("wal_append_us", wal_us);
          ("wal_replay_ms", wal_ms);
          ("check_s", check_s);
          ("cpu_s_per_kop", cpu /. (float_of_int completed /. 1e3));
          ("wall_s_per_kop", window_s /. (float_of_int completed /. 1e3));
        ];
    info = split_info;
    traced = !tracing;
    speed = 1.;
  }

(* ------------------------------------------------------------------ *)
(* dist: SSO-Fast-Scan on three node processes over unix sockets, each
   with a file WAL; node 2 is SIGKILLed after a third of the ops and
   respawned with recovery after two thirds.                           *)

(* The worker side: [perfbench.exe node ME PEERS WAL RECOVER METRICS]. A
   SIGTERM stops it cleanly; it then writes its counters and histogram
   samples to METRICS, one "name value" line each. *)
let node_main argv =
  match argv with
  | [| me; peers; wal; recover; metrics_out |] ->
      let eps =
        String.split_on_char ',' peers
        |> List.map (fun s ->
               match Dist.Conn.endpoint_of_string s with
               | Ok ep -> ep
               | Error e -> failwith e)
        |> Array.of_list
      in
      let t =
        Dist.Node_main.start
          {
            Dist.Node_main.me = int_of_string me;
            eps;
            f = 1;
            algo = Rt.Service.Sso_fast_scan;
            wal = Some wal;
            recover = recover = "1";
            chaos = None;
          }
      in
      (* The handler only sets a flag: posting the Stop from inside it
         can find the mailbox lock held by the thread it interrupted. *)
      let term = Atomic.make false in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set term true));
      let (_ : Thread.t) =
        Thread.create
          (fun () ->
            while not (Atomic.get term) do
              Thread.delay 0.002
            done;
            Dist.Node_main.request_stop t)
          ()
      in
      Dist.Node_main.run t;
      let snap = Obs.Metrics.snapshot (Dist.Net.metrics (Dist.Node_main.net t)) in
      let oc = open_out metrics_out in
      List.iter
        (function
          | name, Obs.Metrics.Count c -> Printf.fprintf oc "%s %d\n" name c
          | name, Obs.Metrics.Samples l ->
              List.iter (fun v -> Printf.fprintf oc "%s %.0f\n" name v) l
          | _ -> ())
        snap;
      close_out oc;
      Dist.Node_main.shutdown t;
      exit 0
  | _ ->
      prerr_endline "usage: perfbench node ME PEERS WAL RECOVER METRICS";
      exit 2

let read_counters path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | l -> (
            match String.split_on_char ' ' l with
            | [ k; v ] -> go ((k, int_of_string v) :: acc)
            | _ -> go acc)
      in
      let r = go [] in
      close_in ic;
      r

(* Spawned node processes not reaped yet: killed on the way out of a
   failed run, so no node outlives the benchmark. *)
let children : (int, unit) Hashtbl.t = Hashtbl.create 8

let wait_reap ?(grace = 5.0) pid =
  Hashtbl.remove children pid;
  let rec go waited =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if waited >= grace then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          snd (Unix.waitpid [] pid)
        end
        else begin
          Thread.delay 0.005;
          go (waited +. 0.005)
        end
    | _, st -> st
  in
  go 0.

let dist_n = 3
let victim = 2

let dist_rep ~seed ~rep ~window ~scan_fraction =
  let root = fresh_sid () in
  let t_rep = now_ns () in
  let dir = Filename.concat out_dir (Printf.sprintf "d%d" rep) in
  rm_rf dir;
  mkdir_p dir;
  let file fmt = Printf.ksprintf (Filename.concat dir) fmt in
  let eps = Array.init dist_n (fun i -> Dist.Conn.Unix_ep (file "n%d.sock" i)) in
  let peers =
    String.concat "," (Array.to_list (Array.map Dist.Conn.endpoint_to_string eps))
  in
  let spawn ~recover i =
    let log =
      Unix.openfile (file "n%d.log" i) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    let argv =
      [|
        Sys.executable_name; "node"; string_of_int i; peers; file "n%d.wal" i;
        (if recover then "1" else "0"); file "n%d.metrics" i;
      |]
    in
    let pid = Unix.create_process argv.(0) argv Unix.stdin log log in
    Unix.close log;
    Hashtbl.replace children pid ();
    pid
  in
  let mu = Mutex.create () in
  let errors = ref [] in
  let err s =
    Mutex.lock mu;
    errors := s :: !errors;
    Mutex.unlock mu
  in
  let recs = ref [] in
  let add r =
    Mutex.lock mu;
    recs := r :: !recs;
    Mutex.unlock mu
  in
  (* Poll every millisecond: [Dist.Client.connect]'s own retries are
     20 ms apart, which would quantise the set-up time. *)
  let connect i =
    let deadline = now_ns () + 5_000_000_000 in
    let rec go () =
      match Dist.Client.connect ~attempts:1 eps.(i) with
      | Some c -> c
      | None when now_ns () < deadline ->
          Thread.delay 0.001;
          go ()
      | None -> failwith (Printf.sprintf "dist: node %d never listened" i)
    in
    go ()
  in
  let rec_of ~node kind (t_inv, t_resp) =
    { Dist.Supervisor.o_node = node; o_kind = kind; o_inv = t_inv; o_resp = t_resp; o_ok = true }
  in
  (* Set-up: spawn every node, connect to all three, then one SCAN each
     (local in SSO). Peer links come up behind it with the dial
     backoff's 10 ms steps, which made a quorum-based set-up time
     trimodal; one warm-up UPDATE per node (a quorum round) waits for
     them outside both the set-up and the window. *)
  let t0 = now_ns () in
  let pids = Array.init dist_n (fun i -> spawn ~recover:false i) in
  let conns = Array.init dist_n connect in
  Array.iteri
    (fun i c ->
      match Dist.Client.scan c with
      | Ok (snap, a, b) -> add (rec_of ~node:i (Dist.Supervisor.K_scan snap) (a, b))
      | Error () -> failwith "dist: first scan failed")
    conns;
  let t1 = now_ns () in
  record ~parent:root "dist.setup" t0 t1;
  Array.iteri
    (fun i c ->
      let v = -(i + 1) in
      match Dist.Client.update c v with
      | Ok st -> add (rec_of ~node:i (Dist.Supervisor.K_update v) st)
      | Error () -> failwith "dist: warm-up update failed")
    conns;
  record ~parent:root "dist.warmup" t1 (now_ns ());
  Dist.Client.close conns.(1);
  let rss = Array.make (dist_n + 1) 0. in
  let killed_status = ref None in
  let t_kill = ref 0 and failover_ns = ref 0 in
  let t_respawn = ref 0 and recovery_ns = ref 0 in
  let recovered = Atomic.make false in
  let probe = ref None in
  let refused = ref 0 and aborted = ref 0 in
  let completed = Atomic.make 0 in
  let window_sid = fresh_sid () in
  let ops = ref [] in
  let probe_loop () =
    let deadline = now_ns () + 30_000_000_000 in
    let rec go () =
      if now_ns () > deadline then err "dist: node 2 never served after respawn"
      else
        match Dist.Client.connect ~attempts:1 eps.(victim) with
        | None ->
            Thread.delay 0.002;
            go ()
        | Some c -> (
            let r = Dist.Client.scan c in
            Dist.Client.close c;
            match r with
            | Ok (snap, ti, tr) ->
                recovery_ns := now_ns () - !t_respawn;
                record ~parent:root "dist.recovery" !t_respawn (now_ns ());
                add (rec_of ~node:victim (Dist.Supervisor.K_scan snap) (ti, tr));
                Atomic.set recovered true
            | Error () ->
                Thread.delay 0.002;
                go ())
    in
    go ()
  in
  (* Client [c] starts on node [home]; client 1 is the victim's client
     and, between its own operations, also fires the fault plan when the
     shared completed-op count crosses a third and two thirds. *)
  let client c home =
    let rng = Random.State.make [| seed; rep; c |] in
    let kinds =
      Array.init (window / 2) (fun _ ->
          if Random.State.float rng 1.0 < scan_fraction then Scn else Upd)
    in
    let cur = ref home and conn = ref conns.(home) in
    let mine = ref [] in
    Array.iteri
      (fun k kind ->
        if c = 1 then begin
          let done_ = Atomic.get completed in
          if !t_kill = 0 && done_ >= window / 3 then begin
            t_kill := now_ns ();
            rss.(dist_n) <- peak_rss_mb pids.(victim);
            Unix.kill pids.(victim) Sys.sigkill;
            killed_status := Some (wait_reap pids.(victim));
            record ~parent:root "dist.kill" !t_kill (now_ns ())
          end
          else if !t_respawn = 0 && done_ >= 2 * window / 3 then begin
            t_respawn := now_ns ();
            pids.(victim) <- spawn ~recover:true victim;
            probe := Some (Thread.create probe_loop ())
          end
          else if Atomic.get recovered && !cur <> victim then begin
            Dist.Client.close !conn;
            cur := victim;
            conn := connect victim
          end
        end;
        let v = (c * 10_000_000) + k in
        let call () =
          let ti = now_ns () in
          let r =
            match kind with
            | Upd -> Result.map (fun st -> (None, st)) (Dist.Client.update !conn v)
            | Scn -> Result.map (fun (s, a, b) -> (Some s, (a, b))) (Dist.Client.scan !conn)
          in
          (ti, r, now_ns ())
        in
        let ti, r, tr = call () in
        let ti, r, tr =
          match r with
          | Error () when !cur = victim && !t_kill <> 0 && not (Atomic.get recovered) ->
              (* Sent to the node this client already killed: nothing
                 ran. Fail over to node 1 and retry the same op. *)
              incr refused;
              Dist.Client.close !conn;
              cur := 1;
              conn := connect 1;
              let _, r, tr = call () in
              if !failover_ns = 0 then failover_ns := tr - !t_kill;
              (ti, r, tr)
          | _ -> (ti, r, tr)
        in
        match r with
        | Ok (snap, (p_inv, p_resp)) ->
            let o = { kind; c_inv = ti; c_resp = tr; p_inv; p_resp } in
            mine := (o, snap) :: !mine;
            add
              (rec_of ~node:!cur
                 (match snap with
                 | None -> Dist.Supervisor.K_update v
                 | Some s -> Dist.Supervisor.K_scan s)
                 (p_inv, p_resp));
            Atomic.incr completed
        | Error () ->
            incr aborted;
            err (Printf.sprintf "dist: client %d op aborted on node %d" c !cur);
            add
              {
                Dist.Supervisor.o_node = !cur;
                o_kind =
                  (match kind with
                  | Upd -> Dist.Supervisor.K_update v
                  | Scn -> Dist.Supervisor.K_scan [||]);
                o_inv = ti;
                o_resp = tr;
                o_ok = false;
              };
            Dist.Client.close !conn;
            cur := 0;
            conn := connect 0)
      kinds;
    Dist.Client.close !conn;
    Mutex.lock mu;
    ops := List.rev_append !mine !ops;
    Mutex.unlock mu
  in
  let cpu0 = cpu_s () in
  let tw0 = now_ns () in
  let threads =
    [ Thread.create (fun () -> client 0 0) (); Thread.create (fun () -> client 1 victim) () ]
  in
  List.iter Thread.join threads;
  let tw1 = now_ns () in
  record ~sid:window_sid ~parent:root "dist.window" tw0 tw1;
  Option.iter Thread.join !probe;
  if not (Atomic.get recovered) then err "dist: node 2 was not respawned";
  (* Idle cluster: SIGTERM must be a clean exit on every live node. *)
  let t_stop = now_ns () in
  Array.iteri (fun i pid -> rss.(i) <- peak_rss_mb pid) pids;
  Array.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) pids;
  Array.iteri
    (fun i pid ->
      match wait_reap pid with
      | Unix.WEXITED 0 -> ()
      | _ -> err (Printf.sprintf "dist: node %d exited uncleanly" i))
    pids;
  (match !killed_status with
  | Some (Unix.WSIGNALED s) when s = Sys.sigkill -> ()
  | _ -> err "dist: the killed node did not die by SIGKILL");
  record ~parent:root "dist.stop" t_stop (now_ns ());
  let cpu = cpu_s () -. cpu0 in
  let with_snaps = !ops in
  let wops = List.map fst with_snaps in
  List.iteri
    (fun i o ->
      let sid = fresh_sid () in
      record ~sid ~parent:window_sid ~op:i
        (if o.kind = Upd then "client.update" else "client.scan")
        o.c_inv o.c_resp;
      record ~parent:sid ~op:i "dist.node" o.p_inv o.p_resp)
    wops;
  let h = Dist.Supervisor.merge_history !recs in
  let check_s = check_history ~parent:root ~err ~mode:Obs.Monitor.Sequential ~n:dist_n h in
  let completed = List.length wops in
  if completed < window then
    err (Printf.sprintf "dist: %d of %d ops did not complete" (window - completed) window);
  let split_layer, split_info, upd_ms, scan_ms = client_split wops in
  let enc, dec = time_wire ~parent:root (frames_of_ops with_snaps) in
  (* The WAL layer on the records the nodes actually wrote. *)
  (* A torn tail is reported, not failed: it is how the program's log
     reads back after a restart (see NOTES.md), and the history checker
     is what decides whether the run was correct. *)
  let victim_records, replay_ms, torn = time_replay ~parent:root (file "n%d.wal" victim) in
  let records =
    List.concat
      (victim_records
      :: List.init (dist_n - 1) (fun i ->
             let r, _, _ = time_replay ~parent:root (file "n%d.wal" i) in
             r))
  in
  let wal_us, _ = time_wal ~parent:root ~path:(file "scratch.wal") records in
  let counters = List.init dist_n (fun i -> read_counters (file "n%d.metrics" i)) in
  let sum name =
    List.fold_left (fun acc c -> acc + Option.value (List.assoc_opt name c) ~default:0) 0 counters
  in
  let rounds =
    List.concat_map
      (List.filter_map (fun (k, v) ->
           if k = "aso.rounds_per_update" then Some (float_of_int v) else None))
      counters
  in
  let window_s = s_of_ns (tw1 - tw0) in
  record ~sid:root "rep" t_rep (now_ns ());
  {
    setup_s = s_of_ns (t1 - t0);
    window_s;
    completed;
    upd_ms;
    scan_ms;
    attempted = window;
    rejected = !refused;
    aborted = !aborted;
    failed = (if !errors = [] then window - completed else window);
    errors = !errors;
    layer =
      split_layer
      @ [
          ("history_ops_at_window", float_of_int (2 * dist_n));
          ("msgs_per_op", ratio (sum "net.sent") completed);
          ("rounds_per_update_p50", median rounds);
          ("rounds_per_update_p99", quantile rounds 0.99);
          ("lattice_good_ratio", ratio (sum "aso.good_lattice_ops") (sum "aso.lattice_ops"));
          ( "lattice_borrowed_ratio",
            ratio (sum "aso.indirect_views") (sum "aso.direct_views" + sum "aso.indirect_views") );
          ( "wire_per_logical",
            ratio (sum "dist.data_sent" + sum "dist.acks_sent" + sum "dist.retransmits")
              (sum "net.sent") );
          ("retransmits_per_op", ratio (sum "dist.retransmits") completed);
          ("engine_steps_per_op", 0.);
          ("monitor_events_checked", 0.);
          ("monitor_lag_at_stop", 0.);
          ("refused_attempts", float_of_int !refused);
          ("wire_encode_ns", enc);
          ("wire_decode_ns", dec);
          ("wal_records", float_of_int (List.length records));
          ("wal_append_us", wal_us);
          ("wal_replay_ms", replay_ms);
          ("check_s", check_s);
          ("cpu_s_per_kop", cpu /. (float_of_int completed /. 1e3));
          ("wall_s_per_kop", window_s /. (float_of_int completed /. 1e3));
        ];
    info =
      split_info
      @ [
          ("failover_ms", ms_of_ns !failover_ns, "ms");
          ("recovery_s", s_of_ns !recovery_ns, "s");
          ("wal_torn_tail_bytes", float_of_int torn, "bytes");
          ("node_peak_rss_mb", Array.fold_left ( +. ) 0. rss, "MiB");
        ];
    traced = !tracing;
    speed = 1.;
  }

(* ------------------------------------------------------------------ *)
(* sim: Harness.Runner, EQ-ASO, n=7, f=3, uniform [0.1, 1] D delays on
   the lossy substrate with 3 random crashes. Latency and throughput are
   virtual time, read with D = 1 ms; one rep is one seeded instance.   *)

let sim_n = 7
let sim_f = 3

let sim_rep ~seed ~rep ~ops_per_node =
  let root = fresh_sid () in
  let t_rep = now_ns () in
  let iseed = Int64.of_int ((seed * 1000) + rep) in
  let rng = Sim.Rng.create iseed in
  let workload =
    Harness.Workload.random rng ~n:sim_n ~ops_per_node ~scan_fraction:0.4
      ~max_gap:2.0
  in
  let adversary =
    Harness.Adversary.Compose
      [
        Harness.Adversary.Lossy { drop = 0.05; dup = 0.05; reorder = 0.1 };
        Harness.Adversary.Crash_k_random
          { k = sim_f; window = float_of_int ops_per_node *. 2. };
      ]
  in
  let config =
    {
      Harness.Runner.n = sim_n;
      f = sim_f;
      delay = Harness.Runner.Uniform_d { lo = 0.1; hi = 1.0; d = 1.0 };
      seed = iseed;
    }
  in
  let errors = ref [] in
  let t0 = now_ns () in
  let t_built = ref t0 in
  let cpu0 = cpu_s () in
  let outcome =
    try
      Ok
        (Harness.Runner.run
           ~substrate:(Sim.Network.Lossy Sim.Link.no_faults)
           ~watchdog:{ Harness.Runner.budget = float_of_int (ops_per_node * 50); trace = 0 }
           ~configure:(fun _ _ -> t_built := now_ns ())
           ~make:Harness.Algo.eq_aso.make config ~workload ~adversary)
    with Harness.Runner.Stuck msg -> Error msg
  in
  let t1 = now_ns () in
  let cpu = cpu_s () -. cpu0 in
  record ~parent:root "sim.setup" t0 !t_built;
  record ~parent:root "sim.run" !t_built t1;
  match outcome with
  | Error msg ->
      {
        setup_s = s_of_ns (!t_built - t0); window_s = 0.; completed = 0;
        upd_ms = []; scan_ms = []; attempted = Harness.Workload.ops_count workload;
        rejected = 0; aborted = 0; failed = Harness.Workload.ops_count workload;
        errors = [ "sim: stuck: " ^ msg ]; layer = []; info = []; traced = !tracing;
        speed = 1.;
      }
  | Ok (o : Harness.Runner.outcome) ->
      let h = o.history in
      (* Virtual time, with D read as 1 ms. *)
      let vms x = x /. o.d in
      let vns x = int_of_float (vms x *. 1e6) in
      let done_ = History.completed h in
      let ops =
        List.map
          (fun (op : History.op) ->
            let resp = Option.get op.resp in
            let p_inv = vns op.inv and p_resp = vns resp in
            ( { kind = (if History.is_update op then Upd else Scn); c_inv = p_inv;
                c_resp = p_resp; p_inv; p_resp },
              if History.is_update op then None else Some (History.scan_result op) ))
          done_
      in
      let check_s =
        check_history ~parent:root
          ~err:(fun e -> errors := e :: !errors)
          ~mode:Obs.Monitor.Atomic ~n:sim_n h
      in
      let completed = List.length done_ in
      let split_layer, _, upd_ms, scan_ms = client_split (List.map fst ops) in
      let enc, dec = time_wire ~parent:root (frames_of_ops ops) in
      let mints = mint_records h in
      let wal_us, wal_ms =
        time_wal ~parent:root ~path:(Filename.concat out_dir "sim-mints.wal") mints
      in
      let m = o.metrics in
      let rounds = samples_from m "aso.rounds_per_update" ~skip:0 in
      let c name = counter m name in
      let attempted = Harness.Workload.ops_count workload in
      let wall_s = s_of_ns (t1 - !t_built) in
      record ~sid:root "rep" t_rep (now_ns ());
      {
        setup_s = s_of_ns (!t_built - t0);
        window_s = vms o.end_time *. 1e-3;
        completed;
        upd_ms;
        scan_ms;
        (* Operations of crashed nodes stay pending, as the model has it:
           the workload's count at live nodes is what must complete. *)
        attempted = completed;
        rejected = 0;
        aborted = 0;
        failed = (if !errors = [] then 0 else completed);
        errors = !errors;
        layer =
          split_layer
          @ [
              ("history_ops_at_window", 0.);
              ("msgs_per_op", ratio o.messages completed);
              ("rounds_per_update_p50", median rounds);
              ("rounds_per_update_p99", quantile rounds 0.99);
              ("lattice_good_ratio", ratio (c "aso.good_lattice_ops") (c "aso.lattice_ops"));
              ( "lattice_borrowed_ratio",
                ratio (c "aso.indirect_views") (c "aso.direct_views" + c "aso.indirect_views") );
              ("wire_per_logical", Instance.overhead_factor o.net);
              ("retransmits_per_op", ratio o.net.retransmits completed);
              ("engine_steps_per_op", ratio (c "engine.steps") completed);
              ("monitor_events_checked", 0.);
              ("monitor_lag_at_stop", 0.);
              ("refused_attempts", 0.);
              ("wire_encode_ns", enc);
              ("wire_decode_ns", dec);
              ("wal_records", float_of_int (List.length mints));
              ("wal_append_us", wal_us);
              ("wal_replay_ms", wal_ms);
              ("check_s", check_s);
              ("cpu_s_per_kop", cpu /. (float_of_int completed /. 1e3));
              ("wall_s_per_kop", wall_s /. (float_of_int completed /. 1e3));
            ];
        info =
          [
            ("sim.wall_s", wall_s, "s");
            ("ops_scheduled", float_of_int attempted, "count");
            ("ops_cut_by_crash", float_of_int (List.length (History.ops h) - completed), "count");
            ("crashed_nodes", float_of_int (List.length o.crashed), "count");
            ("makespan_d", vms o.end_time, "D");
          ];
        traced = !tracing;
    speed = 1.;
      }

(* ------------------------------------------------------------------ *)
(* Workloads, summary, output.                                         *)

type workload = {
  name : string;
  virtual_time : bool;
      (** client latency, throughput and protocol intervals are simulated
          time: quantiles over all reps' samples, and no speed
          normalisation *)
  base_reps : int;  (** reps in a 10-second run *)
  calib_every : int;  (** reps between two calibrations *)
  run_rep : seed:int -> rep:int -> rep;
}

let workloads =
  [
    {
      name = "rt-contended";
      virtual_time = false;
      calib_every = 1;
      base_reps = 10;
      run_rep = rt_rep ~prefill:0 ~window:5000 ~scan_fraction:0.2;
    };
    {
      name = "rt-long-history";
      virtual_time = false;
      calib_every = 1;
      base_reps = 10;
      run_rep = rt_rep ~prefill:3000 ~window:2000 ~scan_fraction:0.5;
    };
    {
      name = "dist-crash-restart";
      virtual_time = false;
      calib_every = 1;
      base_reps = 7;
      run_rep = dist_rep ~window:6000 ~scan_fraction:0.8;
    };
    {
      name = "sim-lossy-crash";
      virtual_time = true;
      calib_every = 20;
      base_reps = 100;
      run_rep = sim_rep ~ops_per_node:100;
    };
  ]

let info_value r name =
  List.find_map (fun (k, v, _) -> if k = name then Some v else None) r.info

let is_time unit = List.mem unit [ "s"; "ms"; "us"; "ns" ]

(* Wall-clock numbers are reported at the reference speed: a time is
   divided by its rep's speed factor, a rate multiplied by it, and each
   is the median over reps (every rep has about 1000 samples or more of
   each kind, so each rep's p99 has about ten beyond it). Simulated time
   pools every rep's samples instead: it does not drift. *)
let summarize w reps =
  let med f = median (List.map f reps) in
  let lat sel q =
    if w.virtual_time then quantile (List.concat_map sel reps) q
    else med (fun r -> quantile (sel r) q /. r.speed)
  in
  let throughput =
    if w.virtual_time then
      float_of_int (List.fold_left (fun a r -> a + r.completed) 0 reps)
      /. List.fold_left (fun a r -> a +. r.window_s) 0. reps
    else med (fun r -> float_of_int r.completed /. r.window_s *. r.speed)
  in
  let node_rss =
    match List.filter_map (fun r -> info_value r "node_peak_rss_mb") reps with
    | [] -> 0.
    | l -> median l
  in
  [
    ("throughput_ops_s", throughput);
    ("update_p50_ms", lat (fun r -> r.upd_ms) 0.5);
    ("update_p99_ms", lat (fun r -> r.upd_ms) 0.99);
    ("scan_p50_ms", lat (fun r -> r.scan_ms) 0.5);
    ("scan_p99_ms", lat (fun r -> r.scan_ms) 0.99);
    ("setup_s", med (fun r -> r.setup_s /. r.speed));
    ("peak_rss_mb", peak_rss_mb 0 +. node_rss);
  ]

let virtual_keys = [ "proto_update_ms_p50"; "proto_scan_ms_p50" ]

let layer_summary w reps =
  let traced = List.filter (fun r -> r.traced) reps
  and plain = List.filter (fun r -> not r.traced) reps in
  let value rs (k, unit) =
    let norm r v =
      if is_time unit && not (w.virtual_time && List.mem k virtual_keys) then
        v /. r.speed
      else v
    in
    median (List.filter_map (fun r -> Option.map (norm r) (List.assoc_opt k r.layer)) rs)
  in
  let per_kop rs = value rs ("wall_s_per_kop", "s") in
  List.map
    (fun ((k, _) as ku) ->
      match k with
      | "trace_overhead" ->
          (k, if traced = [] || plain = [] then 0. else (per_kop traced /. per_kop plain) -. 1.)
      | "cpu_speed_factor" -> (k, median (List.map (fun r -> r.speed) reps))
      | _ -> (k, value reps ku))
    per_layer_units

let info_summary reps =
  match reps with
  | [] -> []
  | r0 :: _ ->
      List.map
        (fun (k, _, unit) ->
          (k, median (List.filter_map (fun r -> info_value r k) reps), unit))
        r0.info

let print_json ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (k, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k (num v) unit)
          metrics))

(* Machine-speed calibration. This VM's effective speed drifts by tens
   of percent from minute to minute (NOTES.md), and every wall-clock
   number drifts with it. A fixed kernel that shares no code with the
   program is timed around the reps: allocation, hashing and sorting,
   plus round trips between two threads over a socketpair (the wakeups
   and syscalls that rt and dist latency are made of). Its time over
   [calib_ref_ns] is the speed factor. *)
let calib_ref_ns = 30e6
let calib_sink = ref 0

let calibrate () =
  Gc.compact ();
  let compute () =
    let h = Hashtbl.create 4096 in
    for i = 0 to 100_000 do
      Hashtbl.replace h ((i * 7919) land 8191) i
    done;
    let a = Array.init 20_000 (fun i -> (i * 7919) land 65535) in
    Array.sort compare a;
    let l = List.rev_map succ (List.init 20_000 Fun.id) in
    calib_sink := !calib_sink + Hashtbl.length h + a.(0) + List.hd l
  in
  let round_trips n =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let echo =
      Thread.create
        (fun () ->
          let buf = Bytes.create 1 in
          for _ = 1 to n do
            ignore (Unix.read b buf 0 1 : int);
            ignore (Unix.write b buf 0 1 : int)
          done)
        ()
    in
    let buf = Bytes.create 1 in
    for _ = 1 to n do
      ignore (Unix.write a buf 0 1 : int);
      ignore (Unix.read a buf 0 1 : int)
    done;
    Thread.join echo;
    Unix.close a;
    Unix.close b
  in
  let one () =
    let t0 = now_ns () in
    compute ();
    round_trips 1000;
    float_of_int (now_ns () - t0)
  in
  median (List.init 3 (fun _ -> one ()))

(* A rep that raised: its node processes are killed and reaped, and it
   counts as failed. *)
let failed_rep msg =
  Hashtbl.iter
    (fun pid () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    children;
  Hashtbl.reset children;
  {
    setup_s = nan; window_s = nan; completed = 0; upd_ms = []; scan_ms = [];
    attempted = 1; rejected = 0; aborted = 0; failed = 1; errors = [ msg ]; layer = []; info = [];
    traced = false; speed = 1.;
  }

let run_workload w ~seed ~seconds ~trace =
  let reps_n = max 3 (int_of_float (Float.round (float_of_int w.base_reps *. seconds /. 10.))) in
  Printf.printf "workload %s: seed %d, %d reps%s\n%!" w.name seed reps_n
    (if trace then " (traced reps alternate with untraced ones)" else "");
  (* Calibrate at every [calib_every]-th rep boundary (and after the
     last rep); a rep's speed is the mean of the two around it. *)
  let calibs = Hashtbl.create 16 in
  let calib_at b =
    match Hashtbl.find_opt calibs b with
    | Some c -> c
    | None ->
        let c = calibrate () in
        Hashtbl.add calibs b c;
        c
  in
  (* A run that has taken [4 * seconds] starts no further rep, so a
     starved machine still ends inside the 180 s a run is given. *)
  let t_start = now_ns () in
  let out_of_time () = s_of_ns (now_ns () - t_start) > 4. *. seconds in
  let rec go rep acc =
    if rep = reps_n || (rep > 0 && out_of_time ()) then List.rev acc
    else begin
      let b0 = rep / w.calib_every * w.calib_every in
      let c0 = calib_at b0 in
      tracing := trace && rep mod 2 = 0;
      Gc.compact ();
      let r =
        try w.run_rep ~seed ~rep
        with e ->
          tracing := false;
          failed_rep (Printf.sprintf "rep %d raised %s" rep (Printexc.to_string e))
      in
      tracing := false;
      if rep + 1 = min reps_n (b0 + w.calib_every) then ignore (calib_at (rep + 1));
      go (rep + 1) ((r, c0, b0) :: acc)
    end
  in
  let ran = go 0 [] in
  let last = List.length ran in
  ignore (calib_at last);
  let reps =
    List.map
      (fun (r, c0, b0) ->
        let c1 = calib_at (min last (b0 + w.calib_every)) in
        { r with speed = (c0 +. c1) /. 2. /. calib_ref_ns })
      ran
  in
  if List.length reps < reps_n then
    Printf.printf "  out of time: %d of %d reps ran\n" (List.length reps) reps_n;
  List.iteri
    (fun i r ->
      if reps_n <= 40 || r.errors <> [] then
        Printf.printf
          "  rep %d%s: speed %.3f, raw: setup %.4f s, %d ops, %.1f ops/s, \
           update p50 %.3f ms, scan p50 %.3f ms%s\n"
          i (if r.traced then " [traced]" else "") r.speed r.setup_s r.completed
          (float_of_int r.completed /. r.window_s)
          (median r.upd_ms) (median r.scan_ms)
          (if r.errors = [] then "" else "  ERRORS: " ^ String.concat "; " r.errors))
    reps;
  let errors = List.concat_map (fun r -> r.errors) reps in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 reps in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 reps in
  let samples sel = List.fold_left (fun a r -> a + List.length (sel r)) 0 reps in
  Printf.printf "end-to-end (%s; samples: %d updates, %d scans):\n"
    (if w.virtual_time then "simulated time, D read as 1 ms; quantiles over all reps"
     else "wall clock at the reference speed; median over reps")
    (samples (fun r -> r.upd_ms)) (samples (fun r -> r.scan_ms));
  let e2e = summarize w reps in
  List.iter
    (fun (k, v) -> Printf.printf "  %-24s %14.4f %s\n" k v (List.assoc k end_to_end_units))
    e2e;
  let layers = layer_summary w reps in
  Printf.printf "per-layer (median over reps):\n";
  List.iter
    (fun (k, v) -> Printf.printf "  %-24s %14.4f %s\n" k v (List.assoc k per_layer_units))
    layers;
  List.iter (fun (k, v, u) -> Printf.printf "  %-24s %14.4f %s\n" k v u) (info_summary reps);
  let sum f = List.fold_left (fun a r -> a + f r) 0 reps in
  Printf.printf
    "failures: %d attempted, %d completed, %d rejected, %d aborted, %d failed \
     (failed_op_ratio %.4f)\n"
    attempted (sum (fun r -> r.completed)) (sum (fun r -> r.rejected))
    (sum (fun r -> r.aborted)) failed (ratio failed attempted);
  if trace then begin
    let all = !spans in
    let path = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" w.name seed) in
    dump_spans path all;
    let table = self_times all in
    let total = List.fold_left (fun a (_, (_, self)) -> a + self) 0 table in
    Printf.printf "traced reps: %d spans written to %s\n" (List.length all) path;
    Printf.printf
      "  self time = span minus its children; client.* self time is the \
       handoff around the protocol interval\n";
    Printf.printf "  %-20s %8s %12s %8s\n" "layer (span)" "spans" "self ms" "share";
    List.iter
      (fun (name, (n, self)) ->
        Printf.printf "  %-20s %8d %12.3f %7.2f%%\n" name n (ms_of_ns self)
          (100. *. ratio self total))
      table;
    let per_kop traced =
      median
        (List.filter_map
           (fun r ->
             if r.traced = traced then
               Option.map (fun v -> v /. r.speed) (List.assoc_opt "wall_s_per_kop" r.layer)
             else None)
           reps)
    in
    Printf.printf
      "wall-clock ops/s at the reference speed: untraced %.1f, traced %.1f \
       (tracing overhead %.2f%%)\n"
      (1e3 /. per_kop false) (1e3 /. per_kop true)
      (100. *. List.assoc "trace_overhead" layers)
  end;
  List.iter (fun e -> Printf.printf "ERROR: %s\n" e) errors;
  let correct = errors = [] in
  print_json ~correct ~attempted ~failed
    (if trace then List.map (fun (k, v) -> (k, v, List.assoc k per_layer_units)) layers
     else List.map (fun (k, v) -> (k, v, List.assoc k end_to_end_units)) e2e);
  correct

let () =
  let argv = Sys.argv in
  if Array.length argv > 1 && argv.(1) = "node" then
    node_main (Array.sub argv 2 (Array.length argv - 2));
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  workload, or 'all'");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  run length target (scales the rep count)");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p out_dir;
  let chosen =
    if !workload = "all" then workloads
    else
      match List.filter (fun w -> w.name = !workload) workloads with
      | [] ->
          Printf.eprintf "unknown workload %S (known: %s, all)\n" !workload
            (String.concat ", " (List.map (fun w -> w.name) workloads));
          exit 2
      | l -> l
  in
  let ok =
    List.map (fun w -> run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)) chosen
  in
  exit (if List.for_all Fun.id ok then 0 else 1)
