type kind = Update of int | Scan of int option array option

type op = {
  id : int;
  node : int;
  mutable kind : kind;
  inv : float;
  mutable resp : float option;
  (* Set when the op's node restarted while it was pending: the op will
     never respond (restart is not resurrection). Kept separate from
     [resp] so the checkers keep treating it as an incomplete operation
     (droppable / effect-optional), while liveness accounting stops
     waiting for it. *)
  mutable aborted : float option;
}

type t = { ops : op Vec.t; observe : Obs.Monitor.event -> unit }

let create ?(observe = ignore) () = { ops = Vec.create (); observe }

let invoke_event op =
  Obs.Monitor.Invoke
    {
      id = op.id;
      node = op.node;
      at = op.inv;
      op =
        (match op.kind with
        | Update v -> Obs.Monitor.Update v
        | Scan _ -> Obs.Monitor.Scan);
    }

(* The event that closes [op]: its response, or its abort; [None] while
   it is pending. *)
let close_event op =
  match (op.resp, op.kind) with
  | Some at, Update _ -> Some (Obs.Monitor.Respond_update { id = op.id; at })
  | Some at, Scan (Some snap) ->
      Some (Obs.Monitor.Respond_scan { id = op.id; at; snap })
  | Some _, Scan None -> assert false
  | None, _ ->
      Option.map (fun at -> Obs.Monitor.Abort { id = op.id; at }) op.aborted

let events op = invoke_event op :: Option.to_list (close_event op)

let begin_op t ~now ~node kind =
  let op =
    { id = Vec.length t.ops; node; kind; inv = now; resp = None;
      aborted = None }
  in
  Vec.push t.ops op;
  t.observe (invoke_event op);
  op

let begin_update t ~now ~node ~value = begin_op t ~now ~node (Update value)
let begin_scan t ~now ~node = begin_op t ~now ~node (Scan None)

(* A finish that arrives after a restart aborted the op is dropped: the
   op stays aborted, with no response, and emits nothing (restart is not
   resurrection). *)
let respond ~now op ~kind =
  op.aborted = None
  && begin
       assert (op.resp = None);
       op.kind <- kind;
       op.resp <- Some now;
       true
     end

(* The close events are built here rather than through [close_event],
   whose option would cost every operation two more words. *)
let finish_update t ~now op =
  if respond ~now op ~kind:op.kind then
    t.observe (Obs.Monitor.Respond_update { id = op.id; at = now })

let finish_scan t ~now op ~snap =
  if respond ~now op ~kind:(Scan (Some snap)) then
    t.observe (Obs.Monitor.Respond_scan { id = op.id; at = now; snap })

let abort t ~now op =
  if op.resp = None && op.aborted = None then begin
    op.aborted <- Some now;
    Option.iter t.observe (close_event op)
  end

let ops t = Vec.to_list t.ops
let completed t = List.filter (fun op -> op.resp <> None) (ops t)

let pending t =
  List.filter (fun op -> op.resp = None && op.aborted = None) (ops t)

let abort_node t ~now ~node =
  List.iter (fun op -> if op.node = node then abort t ~now op) (pending t)

let aborted t = List.filter (fun op -> op.aborted <> None) (ops t)

let precedes a b =
  match a.resp with None -> false | Some r -> r < b.inv

let is_scan op = match op.kind with Scan _ -> true | Update _ -> false
let is_update op = not (is_scan op)

let scan_result op =
  match op.kind with
  | Scan (Some snap) -> snap
  | Scan None -> invalid_arg "History.scan_result: pending scan"
  | Update _ -> invalid_arg "History.scan_result: update"

let update_value op =
  match op.kind with
  | Update v -> v
  | Scan _ -> invalid_arg "History.update_value: scan"

let duration op = Option.map (fun r -> r -. op.inv) op.resp

let pp_snap ppf snap =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";")
       (fun ppf -> function
         | None -> Format.fprintf ppf "_"
         | Some v -> Format.fprintf ppf "%d" v))
    (Array.to_list snap)

let pp_op ppf op =
  let pp_resp ppf = function
    | None when op.aborted <> None -> Format.fprintf ppf "aborted"
    | None -> Format.fprintf ppf "pending"
    | Some r -> Format.fprintf ppf "%g" r
  in
  match op.kind with
  | Update v ->
      Format.fprintf ppf "#%d n%d UPDATE(%d) [%g,%a]" op.id op.node v op.inv
        pp_resp op.resp
  | Scan None ->
      Format.fprintf ppf "#%d n%d SCAN [%g,%a]" op.id op.node op.inv pp_resp
        op.resp
  | Scan (Some snap) ->
      Format.fprintf ppf "#%d n%d SCAN->%a [%g,%a]" op.id op.node pp_snap snap
        op.inv pp_resp op.resp

let pp ppf t =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_op ppf (ops t)
