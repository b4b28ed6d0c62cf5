module Int_set = Set.Make (Int)

type t = Int_set.t

type context = {
  update_of_value : (int, History.op) Hashtbl.t;
  (* per update id: its writer's program-order prefix up to and
     including itself *)
  prefixes : (int, Int_set.t) Hashtbl.t;
  updates : History.op list;
  scans : History.op list;
}

let ( let* ) = Result.bind

let context ~n history =
  let ops = History.ops history in
  let update_of_value = Hashtbl.create 64 in
  let prefixes = Hashtbl.create 64 in
  let last_prefix = Array.make n Int_set.empty in
  let updates = List.filter History.is_update ops in
  let scans =
    List.filter (fun op -> History.is_scan op && op.History.resp <> None) ops
  in
  let rec index = function
    | [] -> Ok ()
    | (op : History.op) :: rest ->
        if op.node < 0 || op.node >= n then
          Error (Printf.sprintf "op #%d at out-of-range node %d" op.id op.node)
        else begin
          let v = History.update_value op in
          if Hashtbl.mem update_of_value v then
            Error (Printf.sprintf "duplicate update value %d (op #%d)" v op.id)
          else begin
            Hashtbl.replace update_of_value v op;
            (* List order = invocation order = program order per node
               (nodes are sequential). *)
            last_prefix.(op.node) <- Int_set.add op.id last_prefix.(op.node);
            Hashtbl.replace prefixes op.id last_prefix.(op.node);
            index rest
          end
        end
  in
  let* () = index updates in
  Ok { update_of_value; prefixes; updates; scans }

let of_scan ctx (scan : History.op) =
  let snap = History.scan_result scan in
  let n = Array.length snap in
  let rec build j acc =
    if j >= n then Ok acc
    else
      match snap.(j) with
      | None -> build (j + 1) acc
      | Some v -> (
          match Hashtbl.find_opt ctx.update_of_value v with
          | None ->
              Error
                (Printf.sprintf
                   "scan #%d returned value %d in segment %d that no update \
                    wrote"
                   scan.id v j)
          | Some u ->
              if u.node <> j then
                Error
                  (Printf.sprintf
                     "scan #%d returned value %d in segment %d but it was \
                      written by node %d"
                     scan.id v j u.node)
              else build (j + 1) (Int_set.union acc (Hashtbl.find ctx.prefixes u.id)))
  in
  build 0 Int_set.empty

let updates ctx = ctx.updates
let completed_scans ctx = ctx.scans
