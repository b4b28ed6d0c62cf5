(* Lower a finished history to the monitor's event stream. Each event
   is keyed (time, id, phase) with an operation's invoke (phase 0)
   before its response or abort (phase 1). Ids follow invocation order,
   so a node's next op, invoked at the instant its previous op
   responded, sorts after that response. *)

let events history =
  let evs =
    List.concat_map
      (fun (op : History.op) ->
        let invoke =
          ( op.inv,
            op.id,
            0,
            Obs.Monitor.Invoke
              {
                id = op.id;
                node = op.node;
                at = op.inv;
                op =
                  (match op.kind with
                  | History.Update v -> Obs.Monitor.Update v
                  | History.Scan _ -> Obs.Monitor.Scan);
              } )
        in
        match (op.resp, op.kind) with
        | None, _ when op.aborted <> None ->
            (* Aborted by a restart: lower to Invoke + Abort so the
               monitor frees the node's outstanding slot before the
               post-restart invocations arrive. *)
            let at = Option.get op.aborted in
            [ invoke; (at, op.id, 1, Obs.Monitor.Abort { id = op.id; at }) ]
        | None, _ | Some _, History.Scan None -> [ invoke ]
        | Some at, History.Update _ ->
            [ invoke; (at, op.id, 1, Obs.Monitor.Respond_update { id = op.id; at }) ]
        | Some at, History.Scan (Some snap) ->
            [ invoke;
              (at, op.id, 1, Obs.Monitor.Respond_scan { id = op.id; at; snap })
            ])
      (History.ops history)
  in
  List.map
    (fun (_, _, _, ev) -> ev)
    (List.sort
       (fun (t1, i1, p1, _) (t2, i2, p2, _) ->
         match Float.compare t1 t2 with
         | 0 -> ( match Int.compare i1 i2 with 0 -> Int.compare p1 p2 | c -> c)
         | c -> c)
       evs)

let check ~mode ~n history =
  let m = Obs.Monitor.create ~mode ~n () in
  let rec go = function
    | [] -> Ok ()
    | ev :: rest -> (
        match Obs.Monitor.feed m ev with
        | Ok () -> go rest
        | Error v -> Error v)
  in
  go (events history)
