open Dbp_num

type view = {
  vbin_id : int;
  vbin_tag : string;
  vbin_capacity : Vec.t;
  vbin_level : Vec.t;
  vbin_residual : Vec.t;
  vbin_opened : Rat.t;
  vbin_count : int;
}

type decision = Policy.decision = Existing of int | New_bin of string

type handlers = {
  on_arrival :
    now:Rat.t -> bins:view list -> size:Vec.t -> item_id:int -> decision;
  on_departure : now:Rat.t -> bins:view list -> item_id:int -> unit;
  persistence : Policy.persistence;
}

type t = {
  name : string;
  scalar : Policy.t option;
  spawn : capacity:Vec.t -> handlers;
}

let fits v ~size = Vec.le size v.vbin_residual

let no_departure_handler ~now:_ ~bins:_ ~item_id:_ = ()

type norm = Max | Sum

let norm_name = function Max -> "max" | Sum -> "sum"

let score norm ~capacity residual =
  match norm with
  | Max -> Vec.max_norm ~capacity residual
  | Sum -> Vec.sum_norm ~capacity residual

(* Strict-improvement fold, like the scalar [Fit.select_by]: the
   earliest-opened bin wins ties, because a later bin only displaces
   the incumbent when strictly better. *)
let select_by ~better views ~size =
  List.fold_left
    (fun best v ->
      if not (fits v ~size) then best
      else
        match best with
        | None -> Some v
        | Some b -> if better v b then Some v else best)
    None views

let stateless ~name ?scalar choose =
  {
    name;
    scalar;
    spawn =
      (fun ~capacity ->
        {
          on_arrival =
            (fun ~now ~bins ~size ~item_id:_ ->
              choose ~capacity ~now ~bins ~size);
          on_departure = no_departure_handler;
          persistence = Policy.Stateless;
        });
  }

let first_fit =
  stateless ~name:"first_fit" ~scalar:First_fit.policy
    (fun ~capacity:_ ~now:_ ~bins ~size ->
      (* [better] never displaces the incumbent, so the fold keeps the
         earliest-opened fitting bin. *)
      match select_by ~better:(fun _ _ -> false) bins ~size with
      | Some v -> Existing v.vbin_id
      | None -> New_bin "ff")

let best_fit norm =
  stateless
    ~name:("best_fit:" ^ norm_name norm)
    ~scalar:Best_fit.policy
    (fun ~capacity:_ ~now:_ ~bins ~size ->
      let better v b =
        Rat.(
          score norm ~capacity:v.vbin_capacity v.vbin_residual
          < score norm ~capacity:b.vbin_capacity b.vbin_residual)
      in
      match select_by ~better bins ~size with
      | Some v -> Existing v.vbin_id
      | None -> New_bin "bf")

let worst_fit norm =
  stateless
    ~name:("worst_fit:" ^ norm_name norm)
    ~scalar:Worst_fit.policy
    (fun ~capacity:_ ~now:_ ~bins ~size ->
      let better v b =
        Rat.(
          score norm ~capacity:v.vbin_capacity v.vbin_residual
          > score norm ~capacity:b.vbin_capacity b.vbin_residual)
      in
      match select_by ~better bins ~size with
      | Some v -> Existing v.vbin_id
      | None -> New_bin "wf")

let next_fit =
  {
    name = "next_fit";
    scalar = Some Next_fit.policy;
    spawn =
      (fun ~capacity:_ ->
        {
          on_arrival =
            (fun ~now:_ ~bins ~size ~item_id:_ ->
              (* The current bin is the latest-opened open bin, exactly
                 as in the scalar Next Fit. *)
              match List.rev bins with
              | current :: _ when fits current ~size ->
                  Existing current.vbin_id
              | _ -> New_bin "nf");
          on_departure = no_departure_handler;
          persistence = Policy.Stateless;
        });
  }

(* ---- the d=1 bridge -------------------------------------------------- *)

let scalar_view_of (v : view) : Bin.view =
  {
    Bin.bin_id = v.vbin_id;
    bin_tag = v.vbin_tag;
    bin_capacity = Vec.get v.vbin_capacity 0;
    bin_level = Vec.get v.vbin_level 0;
    bin_residual = Vec.get v.vbin_residual 0;
    bin_opened = v.vbin_opened;
    bin_count = v.vbin_count;
  }

let lift_scalar (p : Policy.t) =
  {
    name = p.Policy.name;
    scalar = Some p;
    spawn =
      (fun ~capacity ->
        if Vec.dim capacity <> 1 then
          invalid_arg
            (Printf.sprintf
               "Vec_policy.lift_scalar: %s is a scalar policy, capacity has \
                %d dimensions"
               p.Policy.name (Vec.dim capacity));
        let h = p.Policy.spawn ~capacity:(Vec.get capacity 0) in
        {
          on_arrival =
            (fun ~now ~bins ~size ~item_id ->
              h.Policy.on_arrival ~now
                ~bins:(List.map scalar_view_of bins)
                ~size:(Vec.get size 0) ~item_id);
          on_departure =
            (if h.Policy.on_departure == Policy.no_departure_handler then
               no_departure_handler
             else
               fun ~now ~bins ~item_id ->
                 h.Policy.on_departure ~now
                   ~bins:(List.map scalar_view_of bins)
                   ~item_id);
          persistence = h.Policy.persistence;
        });
  }

let all =
  [
    first_fit;
    best_fit Max;
    best_fit Sum;
    worst_fit Max;
    worst_fit Sum;
    next_fit;
  ]

let names =
  [
    "first-fit";
    "best-fit:max";
    "best-fit:sum";
    "worst-fit:max";
    "worst-fit:sum";
    "next-fit";
  ]

let find ?(seed = 1L) name =
  match name with
  | "first-fit" | "ff" -> Some first_fit
  | "best-fit" | "bf" | "best-fit:max" -> Some (best_fit Max)
  | "best-fit:sum" -> Some (best_fit Sum)
  | "worst-fit" | "wf" | "worst-fit:max" -> Some (worst_fit Max)
  | "worst-fit:sum" -> Some (worst_fit Sum)
  | "next-fit" | "nf" -> Some next_fit
  | other -> Option.map lift_scalar (Algorithms.find ~seed other)
