type outcome = [ `Done | `Rejected | `Aborted ]

type session = {
  update : node:int -> int -> outcome;
  scan : node:int -> outcome;
  close : unit -> unit;
}

type deployment = {
  n : int;
  up : int -> bool;
  session : int -> session;
  crash : int -> unit;
  restart : int -> unit;
  halted : unit -> bool;
  metrics : Obs.Metrics.t;
}

type faults = {
  victims : int list;
  crash_at : float;
  restart_at : float option;
}

let faults ~n ~f ?restart_at ~crash_at victims =
  let k = List.length victims in
  if k > f then
    invalid_arg
      (Printf.sprintf "Load.faults: %d victims exceed f=%d for n=%d" k f n);
  if List.length (List.sort_uniq compare victims) <> k then
    invalid_arg "Load.faults: a victim is listed twice";
  if List.exists (fun i -> i < 0 || i >= n) victims then
    invalid_arg "Load.faults: victim out of range";
  if crash_at < 0. then invalid_arg "Load.faults: negative crash offset";
  (match restart_at with
  | Some r when r <= crash_at ->
      invalid_arg "Load.faults: the restart must come after the crash"
  | _ -> ());
  { victims; crash_at; restart_at }

type report = {
  secs : float;
  clients : int;
  duration : float;
  completed_updates : int;
  completed_scans : int;
  rejected : int;
  aborted : int;
  ops_per_sec : float;
  update_lat : Obs.Hdr.dist;
  scan_lat : Obs.Hdr.dist;
  crashed : int list;
  restarted : int list;
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let run ?faults d ~clients ~secs ~scan_fraction ~seed =
  if clients <= 0 then invalid_arg "Load.run: clients must be positive";
  if secs <= 0. then invalid_arg "Load.run: secs must be positive";
  let m = d.metrics in
  let updates_ok = Obs.Metrics.counter m "svc.updates_ok" in
  let scans_ok = Obs.Metrics.counter m "svc.scans_ok" in
  let rejected = Obs.Metrics.counter m "svc.rejected" in
  let aborted = Obs.Metrics.counter m "svc.aborted" in
  let update_lat = Obs.Metrics.log_histogram m "svc.update_latency_s" in
  let scan_lat = Obs.Metrics.log_histogram m "svc.scan_latency_s" in
  let next_value = Atomic.make 1 in
  let t_start = now () in
  let deadline = t_start +. secs in
  let account ok lat t0 = function
    | `Done ->
        Obs.Metrics.incr ok;
        Obs.Metrics.record lat (now () -. t0)
    | `Rejected -> Obs.Metrics.incr rejected
    | `Aborted -> Obs.Metrics.incr aborted
  in
  let client c () =
    let rng = Random.State.make [| seed; c |] in
    let s = d.session c in
    let home = c mod d.n in
    let rec pick j =
      if j >= d.n then None
      else
        let node = (home + j) mod d.n in
        if d.up node then Some node else pick (j + 1)
    in
    let rec loop () =
      if now () < deadline && not (d.halted ()) then
        match pick 0 with
        | None -> ()
        | Some node ->
            let t0 = now () in
            if Random.State.float rng 1.0 < scan_fraction then
              account scans_ok scan_lat t0 (s.scan ~node)
            else
              account updates_ok update_lat t0
                (s.update ~node (Atomic.fetch_and_add next_value 1));
            loop ()
    in
    Fun.protect ~finally:s.close loop
  in
  (* Fault events wait in short slices so that a run whose clients all
     stopped early (a halted deployment) does not sit out the plan. *)
  let clients_done = Atomic.make false in
  let crashed = ref [] and restarted = ref [] in
  let rec wait_until offset =
    if Atomic.get clients_done then false
    else
      let dt = t_start +. offset -. now () in
      dt <= 0.
      || (Thread.delay (Float.min dt 0.01);
          wait_until offset)
  in
  let fault_thread =
    Option.map
      (fun p ->
        Thread.create
          (fun () ->
            if wait_until p.crash_at then begin
              List.iter
                (fun i ->
                  d.crash i;
                  crashed := i :: !crashed)
                p.victims;
              match p.restart_at with
              | Some r when wait_until r ->
                  List.iter
                    (fun i ->
                      d.restart i;
                      restarted := i :: !restarted)
                    p.victims
              | _ -> ()
            end)
          ())
      faults
  in
  let threads = List.init clients (fun c -> Thread.create (client c) ()) in
  List.iter Thread.join threads;
  Atomic.set clients_done true;
  Option.iter Thread.join fault_thread;
  let duration = now () -. t_start in
  let completed_updates = Obs.Metrics.count updates_ok in
  let completed_scans = Obs.Metrics.count scans_ok in
  {
    secs;
    clients;
    duration;
    completed_updates;
    completed_scans;
    rejected = Obs.Metrics.count rejected;
    aborted = Obs.Metrics.count aborted;
    ops_per_sec = float_of_int (completed_updates + completed_scans) /. duration;
    update_lat = Obs.Hdr.snapshot (Obs.Metrics.hdr update_lat);
    scan_lat = Obs.Hdr.snapshot (Obs.Metrics.hdr scan_lat);
    crashed = List.rev !crashed;
    restarted = List.rev !restarted;
  }

let volatile r =
  [
    ("ops_per_sec", r.ops_per_sec);
    ("completed_updates", float_of_int r.completed_updates);
    ("completed_scans", float_of_int r.completed_scans);
    ("rejected", float_of_int r.rejected);
    ("aborted", float_of_int r.aborted);
  ]

let pp_report ppf r =
  let lat ppf (d : Obs.Hdr.dist) =
    match (Obs.Hdr.dist_quantile d 0.5, Obs.Hdr.dist_quantile d 0.99) with
    | Some p50, Some p99 ->
        Format.fprintf ppf "p50 %.2f ms   p99 %.2f ms   (%d ops)" (p50 *. 1e3)
          (p99 *. 1e3) d.Obs.Hdr.d_count
    | _ -> Format.pp_print_string ppf "(no completed ops)"
  in
  let nodes l = String.concat ", " (List.map (Printf.sprintf "n%d") l) in
  Format.fprintf ppf
    "@[<v>duration    : %.2f s (requested %.1f)@,\
     operations  : %d updates + %d scans completed, %d rejected, %d aborted@,\
     throughput  : %.0f ops/s@,\
     update lat  : %a@,\
     scan lat    : %a"
    r.duration r.secs r.completed_updates r.completed_scans r.rejected
    r.aborted r.ops_per_sec lat r.update_lat lat r.scan_lat;
  if r.crashed <> [] then
    Format.fprintf ppf "@,crashed     : %s (mid-run)" (nodes r.crashed);
  if r.restarted <> [] then
    Format.fprintf ppf "@,restarted   : %s" (nodes r.restarted);
  Format.fprintf ppf "@]"
