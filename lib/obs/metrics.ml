(* Instruments hold their state in [Atomic] cells so updates are safe
   from any domain (the rt backend increments network counters and
   observes histograms from every node's domain). On the single-threaded
   simulator the atomics are uncontended plain loads/stores, so the
   deterministic paths are unaffected. Registration (the hashtable) is
   NOT domain-safe: register from one thread at a time. A snapshot never
   reads the hashtable — it walks [order], which registration replaces
   with one pointer write — so it may run while another thread
   registers (the load driver registers its instruments when a run
   starts, while the telemetry endpoint may be serving).

   A counter registered with [~writers:k] also has [k] per-writer
   cells, each alone on its own cache lines of one int array: writer
   [w]'s bump is a plain load and store to a line no other domain
   writes, and a read sums the cells. An OCaml 5 race on an int field
   returns some value that was written, so a read mid-run sees each
   cell's count as of some recent bump. *)

type counter = {
  c_name : string;
  count : int Atomic.t;
  cells : int array; (* writer w's cell at (w + 1) * stride; [||] if none *)
}

let stride = 16 (* words: two 64-byte cache lines *)

type gauge = { g_name : string; level : float Atomic.t }

type histogram = {
  h_name : string;
  samples : float list Atomic.t; (* newest first *)
}

type log_histogram = { l_name : string; hdr : Hdr.t }

type metric =
  | C of counter
  | G of gauge
  | H of histogram
  | L of log_histogram

type t = {
  tbl : (string, metric) Hashtbl.t;
  mutable order : (string * metric) list; (* registration order, newest first *)
}

let create () = { tbl = Hashtbl.create 32; order = [] }

let kind_name = function
  | C _ -> "counter"
  | G _ -> "gauge"
  | H _ -> "histogram"
  | L _ -> "log_histogram"

let register t name make describe =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> (
      match describe m with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %S already registered as a %s" name
               (kind_name m)))
  | None ->
      let v, m = make () in
      Hashtbl.replace t.tbl name m;
      t.order <- (name, m) :: t.order;
      v

let counter ?(writers = 0) t name =
  if writers < 0 then invalid_arg "Obs.Metrics.counter: writers < 0";
  let cells = if writers = 0 then 0 else (writers + 2) * stride in
  let c =
    register t name
      (fun () ->
        let c =
          { c_name = name; count = Atomic.make 0; cells = Array.make cells 0 }
        in
        (c, C c))
      (function C c -> Some c | _ -> None)
  in
  if Array.length c.cells <> cells then
    invalid_arg
      (Printf.sprintf "Obs.Metrics: counter %S has another writer count" name);
  c

let gauge t name =
  register t name
    (fun () ->
      let g = { g_name = name; level = Atomic.make 0. } in
      (g, G g))
    (function G g -> Some g | _ -> None)

let histogram t name =
  register t name
    (fun () ->
      let h = { h_name = name; samples = Atomic.make [] } in
      (h, H h))
    (function H h -> Some h | _ -> None)

let log_histogram t name =
  register t name
    (fun () ->
      let l = { l_name = name; hdr = Hdr.create () } in
      (l, L l))
    (function L l -> Some l | _ -> None)

let incr c = Atomic.incr c.count
let add c n = ignore (Atomic.fetch_and_add c.count n : int)

let incr_at c w =
  let i = (w + 1) * stride in
  c.cells.(i) <- c.cells.(i) + 1

let count c =
  let sum = ref (Atomic.get c.count) in
  for w = 1 to (Array.length c.cells / stride) - 2 do
    sum := !sum + c.cells.(w * stride)
  done;
  !sum

let counter_name c = c.c_name

let set g v = Atomic.set g.level v
let level g = Atomic.get g.level
let gauge_name g = g.g_name

(* Lock-free cons: retry on contention. Sample order is deterministic
   whenever observers are sequential (always true on the simulator). *)
let rec observe h v =
  let cur = Atomic.get h.samples in
  if not (Atomic.compare_and_set h.samples cur (v :: cur)) then observe h v

let histogram_name h = h.h_name

let record l v = Hdr.observe l.hdr v
let log_histogram_name l = l.l_name
let hdr l = l.hdr

(* ---- snapshots ------------------------------------------------------- *)

type stat =
  | Count of int
  | Level of float
  | Samples of float list (* oldest first *)
  | Dist of Hdr.dist

type snapshot = (string * stat) list

let snapshot t =
  List.rev_map
    (fun (name, m) ->
      ( name,
        match m with
        | C c -> Count (count c)
        | G g -> Level (Atomic.get g.level)
        | H h -> Samples (List.rev (Atomic.get h.samples))
        | L l -> Dist (Hdr.snapshot l.hdr) ))
    t.order

let merge_stat name a b =
  match (a, b) with
  | Count x, Count y -> Count (x + y)
  | Level x, Level y -> Level (Float.max x y)
  | Samples x, Samples y -> Samples (x @ y)
  | Dist x, Dist y -> Dist (Hdr.dist_merge x y)
  | _ ->
      invalid_arg
        (Printf.sprintf "Obs.Metrics.merge: %S has conflicting kinds" name)

(* Union keyed by name: counters add, gauges keep the max, histograms
   concatenate samples. Order: [a]'s entries, then [b]'s new ones. *)
let merge a b =
  let merged =
    List.map
      (fun (name, sa) ->
        match List.assoc_opt name b with
        | None -> (name, sa)
        | Some sb -> (name, merge_stat name sa sb))
      a
  in
  merged @ List.filter (fun (name, _) -> not (List.mem_assoc name a)) b

(* Canonical form for serialized snapshots: entries name-sorted (stable
   across registration-order differences between runs) and histogram
   samples in observation order (already guaranteed by [snapshot], and
   preserved by [merge]'s left-then-right concatenation). Two runs with
   identical seeds serialize a [sorted] snapshot byte-identically. *)
let sorted snap =
  List.stable_sort (fun (a, _) (b, _) -> String.compare a b) snap

let find snap name = List.assoc_opt name snap

let find_count snap name =
  match find snap name with Some (Count c) -> Some c | _ -> None

let find_samples snap name =
  match find snap name with Some (Samples s) -> Some s | _ -> None

let find_dist snap name =
  match find snap name with Some (Dist d) -> Some d | _ -> None

type summary = { s_count : int; mean : float; min : float; max : float }

let summary = function
  | [] -> None
  | samples ->
      let n = List.length samples in
      Some
        {
          s_count = n;
          mean = List.fold_left ( +. ) 0. samples /. float_of_int n;
          min = List.fold_left Float.min infinity samples;
          max = List.fold_left Float.max neg_infinity samples;
        }

let pp_stat ppf = function
  | Count c -> Format.pp_print_int ppf c
  | Level l -> Format.fprintf ppf "%g" l
  | Samples s -> (
      match summary s with
      | None -> Format.pp_print_string ppf "(empty)"
      | Some { s_count; mean; min; max } ->
          Format.fprintf ppf "n=%d mean=%.2f min=%.2f max=%.2f" s_count mean
            min max)
  | Dist d -> Hdr.pp_dist ppf d

let pp_snapshot ppf snap =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline
    (fun ppf (name, stat) ->
      Format.fprintf ppf "%-32s %a" name pp_stat stat)
    ppf snap
