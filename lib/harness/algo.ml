type t = {
  name : string;
  paper_row : string;
  make : Runner.maker;
  consistency : Obs.Monitor.mode;
}

let eq_aso =
  {
    name = "eq-aso";
    paper_row = "EQ-ASO [this paper]";
    make =
      (fun engine ~n ~f ~delay ->
        Aso_core.Eq_aso.instance (Aso_core.Eq_aso.create engine ~n ~f ~delay));
    consistency = Atomic;
  }

let sso =
  {
    name = "sso-fast-scan";
    paper_row = "SSO-Fast-Scan [this paper]";
    make =
      (fun engine ~n ~f ~delay ->
        Aso_core.Sso.instance (Aso_core.Sso.create engine ~n ~f ~delay));
    consistency = Sequential;
  }

let dc_aso =
  {
    name = "dc-aso";
    paper_row = "[19] double collect";
    make =
      (fun engine ~n ~f ~delay ->
        Baselines.Dc_aso.instance (Baselines.Dc_aso.create engine ~n ~f ~delay));
    consistency = Atomic;
  }

let sc_aso =
  {
    name = "sc-aso";
    paper_row = "[12] store-collect";
    make =
      (fun engine ~n ~f ~delay ->
        Baselines.Sc_aso.instance (Baselines.Sc_aso.create engine ~n ~f ~delay));
    consistency = Atomic;
  }

let stacked_aso =
  {
    name = "stacked-aso";
    paper_row = "[2]+[8] stacked on ABD registers";
    make =
      (fun engine ~n ~f ~delay ->
        Registers.Stacked_aso.instance
          (Registers.Stacked_aso.create engine ~n ~f ~delay));
    consistency = Atomic;
  }

let la_aso =
  {
    name = "la-aso";
    paper_row = "[41],[42]+[11] LA transform";
    make =
      (fun engine ~n ~f ~delay ->
        Baselines.La_aso.instance (Baselines.La_aso.create engine ~n ~f ~delay));
    consistency = Atomic;
  }

let scd_aso =
  {
    name = "scd-aso";
    paper_row = "[29] SCD-broadcast";
    make =
      (fun engine ~n ~f ~delay ->
        Baselines.Scd_aso.instance
          (Baselines.Scd_aso.create engine ~n ~f ~delay));
    consistency = Atomic;
  }

let all = [ stacked_aso; dc_aso; sc_aso; scd_aso; la_aso; eq_aso; sso ]

let find name =
  let canon = String.map (function '_' -> '-' | c -> c) name in
  List.find (fun a -> a.name = canon) all
