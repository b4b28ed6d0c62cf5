(** Registry of runnable snapshot algorithms for the experiments.

    Each entry wraps an algorithm's [create]/[instance] pair behind the
    uniform {!Runner.maker} face, tagged with the consistency level its
    histories must satisfy (checked after every run in the tests). *)

type t = {
  name : string;  (** as printed in tables, e.g. "eq-aso" *)
  paper_row : string;  (** the Table I row it reproduces *)
  make : Runner.maker;
  consistency : Obs.Monitor.mode;
}

val eq_aso : t
val sso : t
val dc_aso : t
val sc_aso : t
val scd_aso : t
val stacked_aso : t
val la_aso : t

val all : t list
(** Every registered algorithm, Table I order (baselines first, the
    paper's algorithms last). *)

val find : string -> t
(** Underscores are accepted as dashes ([find "eq_aso"] = [find
    "eq-aso"]). @raise Not_found for unknown names. *)
