let label : Obs.Monitor.mode -> string = function
  | Atomic -> "linearizable"
  | Sequential -> "sequentially consistent"

(* Operation-count ceiling for the exponential search oracle. *)
let wg_limit = 14

let infer_n history =
  match History.ops history with
  | [] -> 1
  | ops ->
      (* Segment count: scans carry it; fall back to max node id. *)
      List.fold_left
        (fun acc (op : History.op) ->
          match op.kind with
          | History.Scan (Some snap) -> max acc (Array.length snap)
          | _ -> max acc (op.node + 1))
        1 ops

let check ?n level history =
  let n = match n with Some n -> n | None -> infer_n history in
  let construct, oracle =
    match level with
    | Obs.Monitor.Atomic -> (Linearize.linearize, Wg.linearizable)
    | Sequential -> (Linearize.sequentialize, Wg.equivalent_sequential)
  in
  match Feed.check ~mode:level ~n history with
  | Error v -> Error (Format.asprintf "%a" Obs.Monitor.pp_violation v)
  | Ok () -> (
      match construct ~n history with
      | Error e -> Error (Printf.sprintf "no witness order: %s" e)
      | Ok (_ : History.op list) ->
          (* Independent oracle, affordable only on small histories: a
             pass here that the search refutes means the monitor itself
             is wrong — exactly what an explorer of rare interleavings
             must not silently trust. *)
          if
            List.length (History.ops history) <= wg_limit
            && not (oracle ~n history)
          then
            Error
              (Printf.sprintf
                 "the monitor accepts the history but the Wing-Gong search \
                  finds no %s order"
                 (label level))
          else Ok ())

let verdict ~n mode history =
  let passed how =
    Printf.sprintf "%s (%s, %s)" (label mode)
      (match mode with Atomic -> "A0-A4" | Sequential -> "S1-S3")
      how
  in
  if List.length (History.ops history) <= 1500 then
    Result.map (fun () -> passed "monitor + witness") (check ~n mode history)
  else
    match Feed.check ~mode ~n history with
    | Ok () -> Ok (passed "streaming monitor")
    | Error v -> Error (Format.asprintf "%a" Obs.Monitor.pp_violation v)
