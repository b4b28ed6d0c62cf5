type config = {
  me : int;
  eps : Conn.endpoint array;
  f : int;
  algo : Rt.Service.algo;
  wal : string option;
  recover : bool;
  chaos : Chan.faults option;
}

(* Algorithm-agnostic operation surface over the local node — the same
   shape Rt.Service uses internally. *)
type ops = {
  op_update : int -> unit;
  op_scan : unit -> int option array;
  op_begin_recovery : unit -> unit;
  op_recover : unit -> unit;
}

type t = { net : Net.t; expo : Rt.Expo_server.t option }

let build_ops cfg backend =
  let me = cfg.me in
  let attach_store core =
    match cfg.wal with
    | None -> ()
    | Some path ->
        Aso_core.Lattice_core.set_store
          (Aso_core.Lattice_core.node core me)
          (Persist.Store.file path)
  in
  match cfg.algo with
  | Rt.Service.Eq_aso ->
      let a = Aso_core.Eq_aso.create_on backend ~f:cfg.f in
      attach_store (Aso_core.Eq_aso.core a);
      {
        op_update = (fun v -> Aso_core.Eq_aso.update a ~node:me v);
        op_scan = (fun () -> Aso_core.Eq_aso.scan a ~node:me);
        op_begin_recovery =
          (fun () -> Aso_core.Eq_aso.begin_recovery a ~node:me);
        op_recover = (fun () -> Aso_core.Eq_aso.recover a ~node:me);
      }
  | Rt.Service.Sso_fast_scan ->
      let a = Aso_core.Sso.create_on backend ~f:cfg.f in
      attach_store (Aso_core.Sso.core a);
      {
        op_update = (fun v -> Aso_core.Sso.update a ~node:me v);
        op_scan = (fun () -> Aso_core.Sso.scan a ~node:me);
        op_begin_recovery = (fun () -> Aso_core.Sso.begin_recovery a ~node:me);
        op_recover = (fun () -> Aso_core.Sso.recover a ~node:me);
      }

let start ?telemetry ?seed cfg =
  if cfg.recover && cfg.wal = None then
    invalid_arg "Node_main.start: --recover needs a WAL";
  let net = Net.create ?faults:cfg.chaos ?seed ~me:cfg.me ~eps:cfg.eps () in
  (* create_on builds every node's state but only ours is driven; it
     installs our handler on the backend, which must precede Net.start
     (no traffic before the handler exists). *)
  let ops = build_ops cfg (Net.backend net) in
  Net.set_client_handler net (fun frame ~reply ->
      match frame with
      | Wire.Req { rid; op } ->
          (* Operation invocation/response stamps are taken inside
             protocol context, around the blocking op itself. The run
             loop serializes every operation on this node, so its
             [t_inv, t_resp] intervals never overlap — each node is a
             sequential process, exactly the paper's model. *)
          Net.post_work net (fun () ->
              try
                let t_inv = Net.now_ns () in
                let result =
                  match op with
                  | Wire.Op_update v ->
                      ops.op_update v;
                      Wire.R_update_done
                  | Wire.Op_scan -> Wire.R_scan (ops.op_scan ())
                in
                let t_resp = Net.now_ns () in
                reply (Wire.Resp { rid; t_inv; t_resp; result })
              with e ->
                (* Don't let a failed op kill the node loop; the client
                   times out and retries elsewhere. *)
                Printf.eprintf "dist-node %d: op failed: %s\n%!" cfg.me
                  (Printexc.to_string e))
      | _ -> ());
  (* Rejoin runs as the first operation: reset volatile state (epoch
     bump fences stale-incarnation acks), then replay the WAL + quorum
     pull + mint fence + renewal. Client ops posted meanwhile are
     deferred behind it by the run loop. *)
  if cfg.recover then
    Net.post_work net (fun () ->
        ops.op_begin_recovery ();
        ops.op_recover ());
  Net.start net;
  let expo =
    match telemetry with
    | None -> None
    | Some addr ->
        Some
          (Rt.Expo_server.start ~addr (fun () ->
               Obs.Expo.to_prometheus
                 (Obs.Metrics.snapshot (Net.metrics net))))
  in
  { net; expo }

let net t = t.net
let run t = Net.run t.net
let request_stop t = Net.request_stop t.net

let shutdown t =
  Net.stop t.net;
  match t.expo with None -> () | Some e -> Rt.Expo_server.stop e
