(* A view is stored per writer: each writer's tags form an int set whose
   cardinality is cached beside it, so the per-operation queries walk
   the writers and the trees' spines, never the members. [total] caches
   the sum of the cardinalities. [bound] is the lazy tag bound that
   [restrict] lowers: the view's members are exactly the stored
   timestamps with tag [<= bound], and [max_int] means unbounded.

   Invariant: no writer maps to an empty tag set. A bounded view may
   still store writers all of whose tags lie above the bound;
   [materialise] drops them. *)

module Tags = Set.Make (Int)
module Writers = Map.Make (Int)

type entry = { tags : Tags.t; card : int }
type t = { writers : entry Writers.t; total : int; bound : int }

let unbounded = max_int
let empty = { writers = Writers.empty; total = 0; bound = unbounded }

(* Members of [e] above [b], stepping from [b] upwards: costs one
   O(log H) descent per member above the bound plus one, and allocates
   nothing per member below it. *)
let count_above e b =
  let rec step b k =
    match Tags.find_first_opt (fun x -> x > b) e.tags with
    | None -> k
    | Some x -> step x (k + 1)
  in
  if b = unbounded then 0 else step b 0

let count_le v ~max_tag =
  let b = min v.bound max_tag in
  if b = unbounded then v.total
  else Writers.fold (fun _ e k -> k + e.card - count_above e b) v.writers 0

let cardinal v = count_le v ~max_tag:v.bound

let is_empty v =
  v.total = 0
  || (v.bound <> unbounded
     && Writers.for_all (fun _ e -> Tags.min_elt e.tags > v.bound) v.writers)

let restrict v ~max_tag =
  if max_tag >= v.bound then v else { v with bound = max_tag }

(* The unbounded view with the same members: O(writers · log H) to split
   each writer's set, plus the members cut off to recount. *)
let materialise v =
  if v.bound = unbounded then v
  else
    let writers =
      Writers.filter_map
        (fun _ e ->
          let below, present, above = Tags.split v.bound e.tags in
          let tags = if present then Tags.add v.bound below else below in
          if Tags.is_empty tags then None
          else Some { tags; card = e.card - Tags.cardinal above })
        v.writers
    in
    {
      writers;
      total = Writers.fold (fun _ e k -> k + e.card) writers 0;
      bound = unbounded;
    }

let mem ts v =
  let tag = Timestamp.tag ts in
  tag <= v.bound
  &&
  match Writers.find_opt (Timestamp.writer ts) v.writers with
  | Some e -> Tags.mem tag e.tags
  | None -> false

let add ts v =
  let tag = Timestamp.tag ts in
  let v = if tag > v.bound then materialise v else v in
  let w = Timestamp.writer ts in
  match Writers.find_opt w v.writers with
  | Some e when Tags.mem tag e.tags -> v
  | found ->
      let e =
        match found with
        | Some e -> { tags = Tags.add tag e.tags; card = e.card + 1 }
        | None -> { tags = Tags.singleton tag; card = 1 }
      in
      { v with writers = Writers.add w e v.writers; total = v.total + 1 }

(* A view usually absorbs one it already contains, or one that contains
   it (SSO merges every good view it hears of into the local one): a
   subset walk allocates nothing, and only incomparable writers pay for
   a fresh tree and its recount. *)
let union a b =
  let a = materialise a and b = materialise b in
  let merge _ ea eb =
    if eb.card <= ea.card && Tags.subset eb.tags ea.tags then Some ea
    else if ea.card <= eb.card && Tags.subset ea.tags eb.tags then Some eb
    else
      let tags = Tags.union ea.tags eb.tags in
      Some { tags; card = Tags.cardinal tags }
  in
  let writers = Writers.union merge a.writers b.writers in
  {
    writers;
    total = Writers.fold (fun _ e k -> k + e.card) writers 0;
    bound = unbounded;
  }

let subset a b =
  let a = materialise a and b = materialise b in
  a.total <= b.total
  && Writers.for_all
       (fun w ea ->
         match Writers.find_opt w b.writers with
         | Some eb -> ea.card <= eb.card && Tags.subset ea.tags eb.tags
         | None -> false)
       a.writers

let equal a b =
  let a = materialise a and b = materialise b in
  a.total = b.total
  && Writers.equal
       (fun ea eb -> ea.card = eb.card && Tags.equal ea.tags eb.tags)
       a.writers b.writers

let comparable a b = subset a b || subset b a

(* Ascending (tag, writer) order — the order of the timestamp set this
   representation replaced, which every iteration-driven schedule
   (state transfer, lattice-agreement decisions) depends on. Each
   writer's members are already tag-ordered; the writers merge. *)
let elements v =
  Writers.fold
    (fun w e acc ->
      let mine =
        Tags.fold
          (fun tag l ->
            if tag <= v.bound then Timestamp.make ~tag ~writer:w :: l else l)
          e.tags []
      in
      List.merge Timestamp.compare (List.rev mine) acc)
    v.writers []

let of_list l = List.fold_left (fun v ts -> add ts v) empty l
let fold f v acc = List.fold_left (fun acc ts -> f ts acc) acc (elements v)
let iter f v = List.iter f (elements v)

let max_tag_entry e b =
  if b = unbounded then Some (Tags.max_elt e.tags)
  else Tags.find_last_opt (fun x -> x <= b) e.tags

let max_tag v =
  Writers.fold
    (fun _ e m ->
      match max_tag_entry e v.bound with Some x when x > m -> x | _ -> m)
    v.writers 0

let latest_per_writer v ~n =
  let out = Array.make n None in
  Writers.iter
    (fun w e ->
      if w >= 0 && w < n then
        out.(w) <-
          Option.map
            (fun tag -> Timestamp.make ~tag ~writer:w)
            (max_tag_entry e v.bound))
    v.writers;
  out

let extract v ~n ~value_of =
  Array.map (Option.map value_of) (latest_per_writer v ~n)

let pp ppf v =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Timestamp.pp)
    (elements v)
