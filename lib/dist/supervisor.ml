type op_kind = K_update of int | K_scan of int option array

type op_rec = {
  o_node : int;
  o_kind : op_kind;
  o_inv : int;
  o_resp : int;
  o_ok : bool;
}

(* ------------------------------------------------------------------ *)
(* Client load.                                                        *)

let drive_clients ~eps ~clients ~secs ?(scan_fraction = 0.3) ?(seed = 0) () =
  let n = Array.length eps in
  let results = Array.make clients [] in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            let rng = Random.State.make [| seed; c; 0x5eed |] in
            let recs = ref [] in
            let k = ref 0 in
            let home = ref (c mod n) in
            let conn = ref (Client.connect eps.(!home)) in
            let t_end = Net.now_ns () + int_of_float (secs *. 1e9) in
            while Net.now_ns () < t_end do
              match !conn with
              | None ->
                  (* Fail over to the next node; it may itself be dead,
                     so keep rotating. *)
                  home := (!home + 1) mod n;
                  Thread.delay 0.05;
                  conn := Client.connect ~attempts:5 eps.(!home)
              | Some cl ->
                  let abort kind t0 =
                    recs :=
                      {
                        o_node = !home;
                        o_kind = kind;
                        o_inv = t0;
                        o_resp = Net.now_ns ();
                        o_ok = false;
                      }
                      :: !recs;
                    Client.close cl;
                    conn := None
                  in
                  if Random.State.float rng 1.0 < scan_fraction then begin
                    let t0 = Net.now_ns () in
                    match Client.scan cl with
                    | Ok (snap, t_inv, t_resp) ->
                        recs :=
                          {
                            o_node = !home;
                            o_kind = K_scan snap;
                            o_inv = t_inv;
                            o_resp = t_resp;
                            o_ok = true;
                          }
                          :: !recs
                    | Error () -> abort (K_scan [||]) t0
                  end
                  else begin
                    incr k;
                    let v = ((c + 1) * 1_000_000) + !k in
                    let t0 = Net.now_ns () in
                    match Client.update cl v with
                    | Ok (t_inv, t_resp) ->
                        recs :=
                          {
                            o_node = !home;
                            o_kind = K_update v;
                            o_inv = t_inv;
                            o_resp = t_resp;
                            o_ok = true;
                          }
                          :: !recs
                    | Error () -> abort (K_update v) t0
                  end
            done;
            (match !conn with Some cl -> Client.close cl | None -> ());
            results.(c) <- !recs)
          ())
  in
  List.iter Thread.join threads;
  List.concat (Array.to_list results)

(* ------------------------------------------------------------------ *)
(* History merge.                                                      *)

let merge_history recs =
  let h = Proto.History.create () in
  if recs = [] then h
  else begin
    (* Aborted ops only have client-side stamps, whose intervals can
       overlap the node's serialized executions (two clients of one
       dying node abort together). Re-anchor each abort just after the
       node's last response that precedes the client-observed failure:
       never later than the op's true execution slot (see the .mli
       argument), and chained so the node stays a sequential process. *)
    let anchored =
      List.map
        (fun r ->
          if r.o_ok then r
          else
            let anchor =
              List.fold_left
                (fun acc c ->
                  if c.o_ok && c.o_node = r.o_node && c.o_resp < r.o_resp
                  then max acc c.o_resp
                  else acc)
                (r.o_inv - 1_000) recs
            in
            { r with o_inv = anchor; o_resp = r.o_resp })
        recs
    in
    (* Chain same-node aborts 100 ns apart inside the death window (the
       node is dead until recovery, seconds away — the window is wide). *)
    let cursors = Hashtbl.create 8 in
    let anchored =
      List.map
        (fun r ->
          if r.o_ok then r
          else begin
            let cur =
              Option.value (Hashtbl.find_opt cursors r.o_node) ~default:min_int
            in
            let inv = max r.o_inv cur + 100 in
            Hashtbl.replace cursors r.o_node (inv + 100);
            { r with o_inv = inv; o_resp = inv + 100 }
          end)
        (List.sort (fun a b -> compare (a.o_resp, a.o_inv) (b.o_resp, b.o_inv))
           anchored)
    in
    let arr = Array.of_list anchored in
    (* Two events per record; at an equal stamp, invocations sort before
       responses (phase 0 < 1) — the conservative order. *)
    let evs = ref [] in
    Array.iteri
      (fun i r -> evs := (r.o_inv, 0, i) :: (r.o_resp, 1, i) :: !evs)
      arr;
    let evs = List.sort compare !evs in
    let t0 = match evs with (t, _, _) :: _ -> t | [] -> 0 in
    let ops = Array.make (Array.length arr) None in
    List.iter
      (fun (t, phase, i) ->
        let now = float_of_int (t - t0) *. 1e-9 in
        let r = arr.(i) in
        if phase = 0 then
          ops.(i) <-
            Some
              (match r.o_kind with
              | K_update v ->
                  Proto.History.begin_update h ~now ~node:r.o_node ~value:v
              | K_scan _ -> Proto.History.begin_scan h ~now ~node:r.o_node)
        else
          match ops.(i) with
          | None -> assert false
          | Some op ->
              if not r.o_ok then Proto.History.abort h ~now op
              else (
                match r.o_kind with
                | K_update _ -> Proto.History.finish_update h ~now op
                | K_scan snap -> Proto.History.finish_scan h ~now op ~snap))
      evs;
    h
  end

(* ------------------------------------------------------------------ *)
(* Process mode.                                                       *)

type exit_status = Clean | Exited of int | Signaled of int

type node_exit = { x_node : int; x_status : exit_status; x_restarted : bool }

type recovery = { rec_node : int; rec_ready_after : float }

type report = {
  history : Proto.History.t;
  ops_total : int;
  ops_aborted : int;
  duration : float;
  ops_per_sec : float;
  update_lat : Obs.Hdr.dist;
  scan_lat : Obs.Hdr.dist;
  killed : int list;
  recoveries : recovery list;
  exits : node_exit list;
}

type config = {
  algo : Rt.Service.algo;
  nodes : int;
  f : int;
  clients : int;
  secs : float;
  kill : int;
  dir : string;
  tcp_base : int option;
  scan_fraction : float;
  seed : int;
  chaos : Chaos.t option;
  worker_argv : string array;
}

let endpoints cfg =
  Array.init cfg.nodes (fun i ->
      match cfg.tcp_base with
      | Some base -> Conn.Tcp_ep ("127.0.0.1", base + i)
      | None ->
          Conn.Unix_ep (Filename.concat cfg.dir (Printf.sprintf "node-%d.sock" i)))

let chaos_flags = function
  | None -> []
  | Some (c : Chaos.t) ->
      List.concat
        [
          (if c.drop > 0. then [ "--chaos-drop"; string_of_float c.drop ]
           else []);
          (if c.dup > 0. then [ "--chaos-dup"; string_of_float c.dup ] else []);
          (if c.delay_prob > 0. then
             [
               "--chaos-delay-prob";
               string_of_float c.delay_prob;
               "--chaos-delay-ms";
               Printf.sprintf "%g:%g" (c.delay_min *. 1e3) (c.delay_max *. 1e3);
             ]
           else []);
          [ "--chaos-seed"; string_of_int c.seed ];
        ]

let spawn_node cfg eps ~recover i =
  let wal = Filename.concat cfg.dir (Printf.sprintf "node-%d.wal" i) in
  let log = Filename.concat cfg.dir (Printf.sprintf "node-%d.log" i) in
  let peers =
    String.concat ","
      (Array.to_list (Array.map Conn.endpoint_to_string eps))
  in
  let argv =
    Array.append cfg.worker_argv
      (Array.of_list
         ([
            Rt.Service.algo_name cfg.algo;
            "--me";
            string_of_int i;
            "--peers";
            peers;
            "--faults";
            string_of_int cfg.f;
            "--wal";
            wal;
          ]
         @ (if recover then [ "--recover" ] else [])
         @ chaos_flags cfg.chaos))
  in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid = Unix.create_process argv.(0) argv Unix.stdin out out in
  Unix.close out;
  pid

let wait_reap ?(grace = 5.0) pid =
  (* Poll-wait so a wedged worker cannot wedge the supervisor: after
     [grace] seconds escalate to SIGKILL. *)
  let rec go elapsed =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if elapsed >= grace then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          let _, st = Unix.waitpid [] pid in
          st
        end
        else begin
          Thread.delay 0.05;
          go (elapsed +. 0.05)
        end
    | _, st -> st
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
  in
  go 0.

let status_of = function
  | Unix.WEXITED 0 -> Clean
  | Unix.WEXITED c -> Exited c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Signaled s

let run cfg =
  if cfg.kill > cfg.f then
    invalid_arg "Supervisor.run: kill must be <= f (the design bound)";
  (try Unix.mkdir cfg.dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let eps = endpoints cfg in
  let pids = Array.init cfg.nodes (fun i -> spawn_node cfg eps ~recover:false i) in
  let restarted = Array.make cfg.nodes false in
  let exits = ref [] in
  (* Kill the highest node ids: client c starts at node c mod n, so low
     ids keep their load and the probe exercises failover. *)
  let victims =
    List.init cfg.kill (fun j -> cfg.nodes - 1 - j) |> List.filter (fun i -> i >= 0)
  in
  let recoveries_mu = Mutex.create () in
  let recoveries = ref [] in
  let extra_recs = ref [] in
  let t_start = Net.now_ns () in
  let killer =
    Thread.create
      (fun () ->
        if cfg.kill > 0 then begin
          Thread.delay (cfg.secs *. 0.5);
          List.iter
            (fun i ->
              (try Unix.kill pids.(i) Sys.sigkill with Unix.Unix_error _ -> ());
              let st = wait_reap pids.(i) in
              exits :=
                { x_node = i; x_status = status_of st; x_restarted = true }
                :: !exits)
            victims;
          Thread.delay (cfg.secs *. 0.25);
          List.iter
            (fun i ->
              let t_respawn = Net.now_ns () in
              pids.(i) <- spawn_node cfg eps ~recover:true i;
              restarted.(i) <- true;
              (* Probe until the rejoined node serves an operation again;
                 the probe ops join the merged history so the checker
                 covers the recovered incarnation's responses. *)
              let rec probe () =
                if Net.now_ns () - t_respawn < 30_000_000_000 then
                  match Client.connect ~attempts:10 eps.(i) with
                  | None ->
                      Thread.delay 0.1;
                      probe ()
                  | Some cl -> (
                      let r = Client.scan cl in
                      Client.close cl;
                      match r with
                      | Ok (snap, t_inv, t_resp) ->
                          Mutex.lock recoveries_mu;
                          extra_recs :=
                            {
                              o_node = i;
                              o_kind = K_scan snap;
                              o_inv = t_inv;
                              o_resp = t_resp;
                              o_ok = true;
                            }
                            :: !extra_recs;
                          recoveries :=
                            {
                              rec_node = i;
                              rec_ready_after =
                                float_of_int (Net.now_ns () - t_respawn)
                                *. 1e-9;
                            }
                            :: !recoveries;
                          Mutex.unlock recoveries_mu
                      | Error () ->
                          Thread.delay 0.1;
                          probe ())
              in
              probe ())
            victims
        end)
      ()
  in
  let recs =
    drive_clients ~eps ~clients:cfg.clients ~secs:cfg.secs
      ~scan_fraction:cfg.scan_fraction ~seed:cfg.seed ()
  in
  Thread.join killer;
  let duration = float_of_int (Net.now_ns () - t_start) *. 1e-9 in
  (* Clients are done and joined, so the nodes are idle: SIGTERM is a
     clean shutdown and anything else is a bug worth reporting. *)
  Thread.delay 0.1;
  Array.iteri
    (fun i pid ->
      ignore i;
      try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    pids;
  Array.iteri
    (fun i pid ->
      let st = wait_reap pid in
      exits :=
        { x_node = i; x_status = status_of st; x_restarted = restarted.(i) }
        :: !exits)
    pids;
  let recs = recs @ !extra_recs in
  let history = merge_history recs in
  let update_h = Obs.Hdr.create () and scan_h = Obs.Hdr.create () in
  let aborted = ref 0 in
  List.iter
    (fun r ->
      if not r.o_ok then incr aborted
      else
        let dt = float_of_int (r.o_resp - r.o_inv) *. 1e-9 in
        match r.o_kind with
        | K_update _ -> Obs.Hdr.observe update_h dt
        | K_scan _ -> Obs.Hdr.observe scan_h dt)
    recs;
  let total = List.length recs in
  {
    history;
    ops_total = total;
    ops_aborted = !aborted;
    duration;
    ops_per_sec =
      (if duration > 0. then float_of_int (total - !aborted) /. duration
       else 0.);
    update_lat = Obs.Hdr.snapshot update_h;
    scan_lat = Obs.Hdr.snapshot scan_h;
    killed = victims;
    recoveries = List.rev !recoveries;
    exits = List.rev !exits;
  }

let pp_status ppf = function
  | Clean -> Format.pp_print_string ppf "clean exit"
  | Exited c -> Format.fprintf ppf "exit %d" c
  | Signaled s ->
      (* [s] is OCaml's internal signal numbering, meaningless to a
         shell user — name the ones the supervisor actually sends. *)
      if s = Sys.sigkill then Format.pp_print_string ppf "killed by SIGKILL"
      else if s = Sys.sigterm then
        Format.pp_print_string ppf "killed by SIGTERM"
      else Format.fprintf ppf "killed by signal %d (OCaml numbering)" s

let pp_quantile ppf (d, q) =
  match Obs.Hdr.dist_quantile d q with
  | Some v -> Format.fprintf ppf "%.2f ms" (v *. 1e3)
  | None -> Format.pp_print_string ppf "-"

let pp_report ppf r =
  Format.fprintf ppf "@[<v>ops        : %d (%d aborted)@," r.ops_total
    r.ops_aborted;
  Format.fprintf ppf "duration   : %.2f s@," r.duration;
  Format.fprintf ppf "throughput : %.0f ops/s@," r.ops_per_sec;
  Format.fprintf ppf "update lat : p50 %a  p99 %a@," pp_quantile
    (r.update_lat, 0.5) pp_quantile (r.update_lat, 0.99);
  Format.fprintf ppf "scan lat   : p50 %a  p99 %a@," pp_quantile
    (r.scan_lat, 0.5) pp_quantile (r.scan_lat, 0.99);
  (match r.killed with
  | [] -> ()
  | ks ->
      Format.fprintf ppf "killed     : node %s (SIGKILL mid-run)@,"
        (String.concat ", " (List.map string_of_int ks)));
  List.iter
    (fun rc ->
      Format.fprintf ppf "recovered  : node %d served again %.2f s after respawn@,"
        rc.rec_node rc.rec_ready_after)
    r.recoveries;
  List.iter
    (fun x ->
      Format.fprintf ppf "node %d     : %a%s@," x.x_node pp_status x.x_status
        (if x.x_restarted then " [was killed and restarted]" else ""))
    (List.sort compare r.exits);
  Format.fprintf ppf "@]"
