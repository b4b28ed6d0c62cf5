(* Senders [0, 62) are bits of [mask], so a phase costs one entry and
   its table slot; a sender outside that range (n > 62) goes to a table
   made on first need. [count] counts both. *)
let mask_bits = 62

type entry = {
  mutable mask : int;
  mutable others : (int, unit) Hashtbl.t option;
  mutable count : int;
  mutable max_payload : int;
}

type t = { mutable next : int; entries : (int, entry) Hashtbl.t }

let create ?(first = 0) () = { next = first; entries = Hashtbl.create 16 }

let next_req t = t.next

let fresh t =
  let req = t.next in
  t.next <- req + 1;
  Hashtbl.replace t.entries req
    { mask = 0; others = None; count = 0; max_payload = 0 };
  req

(* Marks [sender] in [e]; [false] if it was already there. *)
let first_from e sender =
  if sender >= 0 && sender < mask_bits then begin
    let bit = 1 lsl sender in
    e.mask land bit = 0
    && begin
         e.mask <- e.mask lor bit;
         true
       end
  end
  else
    let tbl =
      match e.others with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 8 in
          e.others <- Some tbl;
          tbl
    in
    (not (Hashtbl.mem tbl sender))
    && begin
         Hashtbl.replace tbl sender ();
         true
       end

(* Lookups raise rather than return an option, so that the acks of a
   live phase allocate nothing. *)
let record t ~req ~sender ~payload =
  match Hashtbl.find t.entries req with
  | exception Not_found -> ()
  | e ->
      if first_from e sender then begin
        e.count <- e.count + 1;
        if payload > e.max_payload then e.max_payload <- payload
      end

let count t ~req =
  match Hashtbl.find t.entries req with
  | exception Not_found -> 0
  | e -> e.count

let max_payload t ~req =
  match Hashtbl.find t.entries req with
  | exception Not_found -> 0
  | e -> e.max_payload

let forget t ~req = Hashtbl.remove t.entries req
