type algo = Eq_aso | Sso_fast_scan

let algo_name = function Eq_aso -> "eq-aso" | Sso_fast_scan -> "sso-fast-scan"

let algo_of_name s =
  match String.map (function '_' -> '-' | c -> c) (String.lowercase_ascii s) with
  | "eq-aso" -> Some Eq_aso
  | "sso-fast-scan" -> Some Sso_fast_scan
  | _ -> None

let mode = function
  | Eq_aso -> Obs.Monitor.Atomic
  | Sso_fast_scan -> Obs.Monitor.Sequential

type t = {
  update : node:int -> int -> unit;
  scan : node:int -> int option array;
  begin_recovery : node:int -> unit;
  recover : node:int -> unit;
}

let setup ?mutation core ~n ~store =
  for i = 0 to n - 1 do
    Option.iter
      (Lattice_core.set_store (Lattice_core.node core i))
      (store i)
  done;
  Lattice_core.set_mutation core mutation

let create ?mutation algo (b : _ Backend.net) ~f ~store =
  match algo with
  | Eq_aso ->
      let a = Eq_aso.create_on b ~f in
      setup ?mutation (Eq_aso.core a) ~n:b.n ~store;
      {
        update = Eq_aso.update a;
        scan = Eq_aso.scan a;
        begin_recovery = Eq_aso.begin_recovery a;
        recover = Eq_aso.recover a;
      }
  | Sso_fast_scan ->
      let a = Sso.create_on b ~f in
      setup ?mutation (Sso.core a) ~n:b.n ~store;
      {
        update = Sso.update a;
        scan = Sso.scan a;
        begin_recovery = Sso.begin_recovery a;
        recover = Sso.recover a;
      }
