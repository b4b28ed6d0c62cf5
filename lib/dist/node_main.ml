type config = {
  me : int;
  eps : Conn.endpoint array;
  f : int;
  algo : Aso_core.Handle.algo;
  wal : string option;
  recover : bool;
  chaos : Chan.faults option;
}

type t = { net : Net.t; expo : Rt.Expo_server.t option }

let start ?telemetry ?seed cfg =
  if cfg.recover && cfg.wal = None then
    invalid_arg "Node_main.start: --recover needs a WAL";
  let net = Net.create ?faults:cfg.chaos ?seed ~me:cfg.me ~eps:cfg.eps () in
  (* create_on builds every node's state but only ours is driven; it
     installs our handler on the backend, which must precede Net.start
     (no traffic before the handler exists). *)
  let me = cfg.me in
  let ops =
    Aso_core.Handle.create cfg.algo (Net.backend net) ~f:cfg.f
      ~store:(fun i ->
        if i = me then Option.map Persist.Store.file cfg.wal else None)
  in
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
                      ops.update ~node:me v;
                      Wire.R_update_done
                  | Wire.Op_scan -> Wire.R_scan (ops.scan ~node:me)
                in
                let t_resp = Net.now_ns () in
                reply (Wire.Resp { rid; t_inv; t_resp; result })
              with
              | Net.Stopped -> raise Net.Stopped
              | e ->
                (* Don't let a failed op kill the node loop; the client
                   times out and retries elsewhere. *)
                Printf.eprintf "dist-node %d: op failed: %s\n%!" cfg.me
                  (Printexc.to_string e))
      | _ -> ());
  (* Rejoin runs as the first operation: reset volatile state (epoch
     bump fences stale-incarnation acks), then replay the WAL + quorum
     pull + mint fence + renewal. Client ops posted meanwhile wait
     behind it in the run loop. *)
  if cfg.recover then
    Net.post_work net (fun () ->
        ops.begin_recovery ~node:me;
        ops.recover ~node:me);
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
