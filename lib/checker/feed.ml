(* Lower a finished history to the monitor's event stream, each op
   through [History.events] (the code that built the live stream). Each
   event is keyed (time, id, phase) with an operation's invoke (phase 0)
   before its response or abort (phase 1). Ids follow invocation order,
   so a node's next op, invoked at the instant its previous op
   responded, sorts after that response. *)

let at = function
  | Obs.Monitor.Invoke { at; _ }
  | Obs.Monitor.Respond_update { at; _ }
  | Obs.Monitor.Respond_scan { at; _ }
  | Obs.Monitor.Abort { at; _ } ->
      at
  | Obs.Monitor.Crash _ | Obs.Monitor.Restart _ | Obs.Monitor.Rounds _ ->
      assert false

let events history =
  let evs =
    List.concat_map
      (fun (op : History.op) ->
        List.mapi
          (fun phase ev -> (at ev, op.id, phase, ev))
          (History.events op))
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
