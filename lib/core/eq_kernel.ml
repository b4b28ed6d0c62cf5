type 'v t = {
  n : int;
  me : int;
  forward : Timestamp.t -> 'v -> unit;
  changed : Backend.condition;
  v : View.t array;
  store : (Timestamp.t, 'v) Hashtbl.t;
  (* The pending [await_eq] calls (at most one on a sequential node):
     [add_to_view] bumps their per-view counts directly, so the
     predicate, run once per delivered message, never recounts. *)
  mutable waiting : waiter list;
}

(* [counts.(j)] is [|V.(j)^{<=bound}|], kept current by [add_to_view]. *)
and waiter = { counts : int array; bound : int }

let create ~n ~me ~forward ~changed =
  {
    n;
    me;
    forward;
    changed;
    v = Array.make n View.empty;
    store = Hashtbl.create 64;
    waiting = [];
  }

let me t = t.me

let add_to_view t j ts =
  if not (View.mem ts t.v.(j)) then begin
    t.v.(j) <- View.add ts t.v.(j);
    let tag = Timestamp.tag ts in
    List.iter
      (fun w -> if tag <= w.bound then w.counts.(j) <- w.counts.(j) + 1)
      t.waiting
  end

let local_insert t ts value = Hashtbl.replace t.store ts value

let receive t ~src ts value =
  let fresh = not (Hashtbl.mem t.store ts) in
  if fresh then Hashtbl.replace t.store ts value;
  add_to_view t src ts;
  add_to_view t t.me ts;
  if fresh then t.forward ts value

let view t j = t.v.(j)
let my_view t = t.v.(t.me)
let value_of t ts = Hashtbl.find t.store ts
let knows t ts = Hashtbl.mem t.store ts

let restricted v max_tag =
  match max_tag with None -> v | Some r -> View.restrict v ~max_tag:r

let eq_holds t ~quorum ~max_tag =
  let mine = restricted t.v.(t.me) max_tag in
  let matching = ref 0 in
  for j = 0 to t.n - 1 do
    if View.equal (restricted t.v.(j) max_tag) mine then incr matching
  done;
  !matching >= quorum

let await_eq ?(must_contain = []) t ~quorum ~max_tag =
  (* Since V.(j) ⊆ V.(me), set equality below the tag bound is exactly
     cardinality equality. The starting counts are cheap [count_le]
     calls; from then on [add_to_view] keeps them current. *)
  let bound = Option.value max_tag ~default:max_int in
  let w =
    { counts = Array.init t.n (fun j -> View.count_le t.v.(j) ~max_tag:bound);
      bound }
  in
  let predicate () =
    List.for_all (fun ts -> View.mem ts t.v.(t.me)) must_contain
    &&
    let mine = w.counts.(t.me) in
    let matching = ref 0 in
    for j = 0 to t.n - 1 do
      if w.counts.(j) = mine then incr matching
    done;
    !matching >= quorum
  in
  t.waiting <- w :: t.waiting;
  Fun.protect
    ~finally:(fun () -> t.waiting <- List.filter (fun x -> x != w) t.waiting)
    (fun () -> t.changed.Backend.await predicate);
  restricted t.v.(t.me) max_tag
