(* Self-contained replay files: everything needed to reproduce one
   explored schedule — system parameters plus the minimal choice list —
   in a line-based text format with no dependencies, so a counterexample
   artifact from CI can be replayed on any checkout. *)

type substrate_spec = Sim.Network.substrate = Ideal | Lossy of Chan.faults

type workload_spec =
  | Random
  | Pair of { updater : int; scanner : int; gap : float }
  | Steps of Harness.Workload.t

type spec = {
  algo : string;
  n : int;
  f : int;
  seed : int64;
  ops_per_node : int;
  scan_fraction : float;
  max_gap : float;
  workload : workload_spec;
  substrate : substrate_spec;
  crashes : (int * int array) list;
  restarts : (int * int array) list;
  mutation : Mutants.t option;
  monitor : bool;
  choices : int list;
  note : string;
}

let default_spec =
  {
    algo = "eq-aso";
    n = 3;
    f = 1;
    seed = 42L;
    ops_per_node = 2;
    scan_fraction = 0.5;
    max_gap = 0.;
    workload = Random;
    substrate = Ideal;
    crashes = [];
    restarts = [];
    mutation = None;
    monitor = false;
    choices = [];
    note = "";
  }

let magic = "aso-mc-replay 1"

(* %.17g round-trips every float through the decimal representation. *)
let float_str f = Printf.sprintf "%.17g" f

let ints_str l = String.concat "," (List.map string_of_int l)

let save file spec =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%s" magic;
  line "algo %s" spec.algo;
  line "n %d" spec.n;
  line "f %d" spec.f;
  line "seed %Ld" spec.seed;
  line "ops %d" spec.ops_per_node;
  line "scan-fraction %s" (float_str spec.scan_fraction);
  line "max-gap %s" (float_str spec.max_gap);
  (match spec.workload with
  | Random -> ()
  | Pair { updater; scanner; gap } ->
      line "workload pair %d %d %s" updater scanner (float_str gap)
  | Steps w ->
      Array.iteri
        (fun node steps ->
          if steps <> [] then
            line "sched %d %s" node
              (String.concat ","
                 (List.map
                    (fun { Harness.Workload.gap; op } ->
                      Printf.sprintf "%s:%s" (float_str gap)
                        (match op with
                        | Harness.Workload.Update -> "U"
                        | Harness.Workload.Scan -> "S"))
                    steps)))
        w);
  (match spec.substrate with
  | Ideal -> line "substrate ideal"
  | Lossy { drop; dup; reorder } ->
      line "substrate lossy %s"
        (String.concat " "
           (List.map Chan.string_of_rate [ drop; dup; reorder ])));
  (match spec.mutation with
  | None -> ()
  | Some m -> line "mutation %s" (Mutants.to_string m));
  if spec.monitor then line "monitor on";
  List.iter
    (fun (node, steps) ->
      line "crash %d %s" node (ints_str (Array.to_list steps)))
    spec.crashes;
  List.iter
    (fun (node, steps) ->
      line "restart %d %s" node (ints_str (Array.to_list steps)))
    spec.restarts;
  line "choices %s" (ints_str spec.choices);
  if spec.note <> "" then line "note %s" spec.note;
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf))

let parse_ints s =
  if String.trim s = "" then []
  else
    String.split_on_char ',' s |> List.map String.trim
    |> List.map int_of_string

let parse_line spec line =
  let line = String.trim line in
  if line = "" then Ok spec
  else
    let key, rest =
      match String.index_opt line ' ' with
      | None -> (line, "")
      | Some i ->
          ( String.sub line 0 i,
            String.trim (String.sub line i (String.length line - i)) )
    in
    try
      match key with
      | "algo" -> Ok { spec with algo = rest }
      | "n" -> Ok { spec with n = int_of_string rest }
      | "f" -> Ok { spec with f = int_of_string rest }
      | "seed" -> Ok { spec with seed = Int64.of_string rest }
      | "ops" -> Ok { spec with ops_per_node = int_of_string rest }
      | "scan-fraction" ->
          Ok { spec with scan_fraction = float_of_string rest }
      | "max-gap" -> Ok { spec with max_gap = float_of_string rest }
      | "workload" -> (
          match String.split_on_char ' ' rest with
          | [ "random" ] -> Ok { spec with workload = Random }
          | [ "pair"; u; s; g ] ->
              Ok
                {
                  spec with
                  workload =
                    Pair
                      {
                        updater = int_of_string u;
                        scanner = int_of_string s;
                        gap = float_of_string g;
                      };
                }
          | _ -> Error (Printf.sprintf "bad workload line: %S" line))
      | "sched" -> (
          (* [sched NODE g:U,g:S,...] lines accumulate into an explicit
             per-node step schedule (sized by the [n] line, which must
             precede them). *)
          match String.split_on_char ' ' rest with
          | [ node; steps ] ->
              let node = int_of_string node in
              let steps =
                List.map
                  (fun s ->
                    match String.split_on_char ':' s with
                    | [ g; "U" ] ->
                        {
                          Harness.Workload.gap = float_of_string g;
                          op = Harness.Workload.Update;
                        }
                    | [ g; "S" ] ->
                        {
                          Harness.Workload.gap = float_of_string g;
                          op = Harness.Workload.Scan;
                        }
                    | _ -> failwith "bad step")
                  (String.split_on_char ',' steps)
              in
              let w =
                match spec.workload with
                | Steps w -> w
                | _ -> Array.make spec.n []
              in
              if node < 0 || node >= Array.length w then
                Error (Printf.sprintf "sched node %d out of range" node)
              else begin
                w.(node) <- steps;
                Ok { spec with workload = Steps w }
              end
          | _ -> Error (Printf.sprintf "bad sched line: %S" line))
      | "substrate" -> (
          match String.split_on_char ' ' rest with
          | [ "ideal" ] -> Ok { spec with substrate = Ideal }
          | [ "lossy"; d; u; r ] -> (
              match List.map Chan.rate_of_string [ d; u; r ] with
              | [ Ok drop; Ok dup; Ok reorder ] ->
                  Ok { spec with substrate = Lossy { drop; dup; reorder } }
              | _ -> Error (Printf.sprintf "bad substrate line: %S" line))
          | _ -> Error (Printf.sprintf "bad substrate line: %S" line))
      | "mutation" -> (
          match Mutants.of_string rest with
          | Some m -> Ok { spec with mutation = Some m }
          | None -> Error (Printf.sprintf "unknown mutation: %S" rest))
      | "crash" -> (
          match String.split_on_char ' ' rest with
          | [ node; steps ] ->
              Ok
                {
                  spec with
                  crashes =
                    spec.crashes
                    @ [ (int_of_string node, Array.of_list (parse_ints steps)) ];
                }
          | _ -> Error (Printf.sprintf "bad crash line: %S" line))
      | "restart" -> (
          match String.split_on_char ' ' rest with
          | [ node; steps ] ->
              Ok
                {
                  spec with
                  restarts =
                    spec.restarts
                    @ [ (int_of_string node, Array.of_list (parse_ints steps)) ];
                }
          | _ -> Error (Printf.sprintf "bad restart line: %S" line))
      | "monitor" -> (
          match String.trim rest with
          | "on" -> Ok { spec with monitor = true }
          | "off" -> Ok { spec with monitor = false }
          | other -> Error (Printf.sprintf "unknown monitor mode: %S" other))
      | "choices" -> Ok { spec with choices = parse_ints rest }
      | "note" -> Ok { spec with note = rest }
      | _ -> Error (Printf.sprintf "unknown replay key: %S" key)
    with Failure _ -> Error (Printf.sprintf "unparsable replay line: %S" line)

let load file =
  let ic = open_in file in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  match lines with
  | first :: rest when String.trim first = magic ->
      List.fold_left
        (fun acc line ->
          match acc with Error _ -> acc | Ok spec -> parse_line spec line)
        (Ok default_spec) rest
  | _ -> Error (Printf.sprintf "%s: not a replay file (missing %S)" file magic)

let to_sys spec =
  match Harness.Algo.find spec.algo with
  | exception Not_found -> Error (Printf.sprintf "unknown algorithm %S" spec.algo)
  | algo ->
      let workload =
        match spec.workload with
        | Random ->
            Harness.Workload.random
              (Sim.Rng.create spec.seed)
              ~n:spec.n ~ops_per_node:spec.ops_per_node
              ~scan_fraction:spec.scan_fraction ~max_gap:spec.max_gap
        | Pair { updater; scanner; gap } ->
            Array.init spec.n (fun i ->
                if i = updater then
                  [ { Harness.Workload.gap = 0.; op = Harness.Workload.Update } ]
                else if i = scanner then
                  [ { Harness.Workload.gap; op = Harness.Workload.Scan } ]
                else [])
        | Steps w -> w
      in
      let config =
        {
          Harness.Runner.n = spec.n;
          f = spec.f;
          delay = Harness.Runner.Fixed_d 1.0;
          seed = spec.seed;
        }
      in
      Ok
        (Explore.sys_of_algo ~crashes:spec.crashes ~restarts:spec.restarts
           ~substrate:spec.substrate
           ?mutation:spec.mutation ~monitor:spec.monitor ~config ~workload
           algo)

let run ?trace spec =
  Result.map (fun sys -> Explore.run_choices ?trace sys spec.choices)
    (to_sys spec)
