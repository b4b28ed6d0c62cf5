type op_kind = K_update of int | K_scan of int option array

type op_rec = {
  o_node : int;
  o_kind : op_kind;
  o_inv : int;
  o_resp : int;
  o_ok : bool;
}

(* ------------------------------------------------------------------ *)
(* Client sessions.                                                    *)

type log = { mu : Mutex.t; mutable recs : op_rec list }

let log () = { mu = Mutex.create (); recs = [] }

let add log recs =
  Mutex.lock log.mu;
  log.recs <- recs @ log.recs;
  Mutex.unlock log.mu

let records log =
  Mutex.lock log.mu;
  let r = log.recs in
  Mutex.unlock log.mu;
  r

let session log eps =
  (* One connection at a time, to the node of the last op: moving to
     another node closes it, so a client that comes back to a restarted
     node dials the new incarnation rather than a dead socket. *)
  let conn = ref None in
  let recs = ref [] in
  let record o_node o_kind o_inv o_resp o_ok =
    recs := { o_node; o_kind; o_inv; o_resp; o_ok } :: !recs
  in
  let drop () =
    Option.iter (fun (_, cl) -> Client.close cl) !conn;
    conn := None
  in
  let call ~node abort_kind run =
    (match !conn with
    | Some (i, _) when i = node -> ()
    | _ ->
        drop ();
        conn := Option.map (fun cl -> (node, cl)) (Client.connect eps.(node)));
    match !conn with
    | None -> `Rejected
    | Some (_, cl) -> (
        let t0 = Net.now_ns () in
        match run cl with
        | Ok (kind, t_inv, t_resp) ->
            record node kind t_inv t_resp true;
            `Done
        | Error () ->
            record node abort_kind t0 (Net.now_ns ()) false;
            drop ();
            `Aborted)
  in
  {
    Load.update =
      (fun ~node v ->
        call ~node (K_update v) (fun cl ->
            Result.map (fun (a, b) -> (K_update v, a, b)) (Client.update cl v)));
    scan =
      (fun ~node ->
        call ~node (K_scan [||]) (fun cl ->
            Result.map (fun (snap, a, b) -> (K_scan snap, a, b)) (Client.scan cl)));
    close =
      (fun () ->
        drop ();
        add log !recs);
  }

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

type config = {
  algo : Aso_core.Handle.algo;
  nodes : int;
  f : int;
  dir : string;
  tcp_base : int option;
  link_faults : Chan.faults;
  seed : int;
  worker_argv : string array;
}

let endpoints cfg =
  Array.init cfg.nodes (fun i ->
      match cfg.tcp_base with
      | Some base -> Conn.Tcp_ep ("127.0.0.1", base + i)
      | None ->
          Conn.Unix_ep (Filename.concat cfg.dir (Printf.sprintf "node-%d.sock" i)))

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
            Aso_core.Handle.algo_name cfg.algo;
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
         @ List.concat_map
             (fun (flag, p) -> [ flag; Chan.string_of_rate p ])
             [
               ("--drop", cfg.link_faults.drop);
               ("--dup", cfg.link_faults.dup);
               ("--reorder", cfg.link_faults.reorder);
             ]
         @ [ "--seed"; string_of_int cfg.seed ]))
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

(* [exits] and [recoveries] are written by the load driver's fault
   thread during a run and by {!stop} after it, never concurrently. *)
type t = {
  cfg : config;
  eps : Conn.endpoint array;
  pids : int array;
  up : bool Atomic.t array;
  restarted : bool array;
  log : log;
  metrics : Obs.Metrics.t;
  mutable exits : node_exit list;  (* newest first *)
  mutable recoveries : recovery list;  (* newest first *)
}

let start cfg =
  (* A client writing into a killed worker's socket must get EPIPE, not
     take the supervisor down with it. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.mkdir cfg.dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let eps = endpoints cfg in
  {
    cfg;
    eps;
    pids = Array.init cfg.nodes (fun i -> spawn_node cfg eps ~recover:false i);
    up = Array.init cfg.nodes (fun _ -> Atomic.make true);
    restarted = Array.make cfg.nodes false;
    log = log ();
    metrics = Obs.Metrics.create ();
    exits = [];
    recoveries = [];
  }

let note_exit t i st ~restarted =
  t.exits <-
    { x_node = i; x_status = status_of st; x_restarted = restarted } :: t.exits

let kill t i =
  Atomic.set t.up.(i) false;
  (try Unix.kill t.pids.(i) Sys.sigkill with Unix.Unix_error _ -> ());
  note_exit t i (wait_reap t.pids.(i)) ~restarted:true

let respawn t i =
  let t_respawn = Net.now_ns () in
  t.pids.(i) <- spawn_node t.cfg t.eps ~recover:true i;
  t.restarted.(i) <- true;
  (* Probe until the rejoined node serves an operation again; the probe
     ops join the merged history so the checker covers the recovered
     incarnation's responses. *)
  let rec probe () =
    if Net.now_ns () - t_respawn < 30_000_000_000 then begin
      let s = session t.log t.eps in
      let r = s.scan ~node:i in
      s.close ();
      match r with
      | `Done ->
          let ready = float_of_int (Net.now_ns () - t_respawn) *. 1e-9 in
          t.recoveries <- { rec_node = i; rec_ready_after = ready } :: t.recoveries;
          Atomic.set t.up.(i) true
      | `Rejected | `Aborted ->
          Thread.delay 0.1;
          probe ()
    end
  in
  probe ()

let deployment t =
  {
    Load.n = t.cfg.nodes;
    up = (fun i -> Atomic.get t.up.(i));
    session = (fun _ -> session t.log t.eps);
    crash = kill t;
    restart = respawn t;
    halted = (fun () -> false);
    metrics = t.metrics;
  }

let stop t =
  (* Clients are done and joined, so the nodes are idle: SIGTERM is a
     clean shutdown and anything else is a bug worth reporting. *)
  Thread.delay 0.1;
  Array.iter
    (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    t.pids;
  Array.iteri
    (fun i pid -> note_exit t i (wait_reap pid) ~restarted:t.restarted.(i))
    t.pids;
  List.rev t.exits

let history t = merge_history (records t.log)
let recoveries t = List.rev t.recoveries

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
