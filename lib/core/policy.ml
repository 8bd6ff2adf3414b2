open Dbp_num

type decision = Existing of int | New_bin of string

type state_io = { save : unit -> string; load : string -> unit }
type persistence = Stateless | Persistent of state_io | Volatile

type handlers = {
  on_arrival :
    now:Rat.t -> bins:Bin.view list -> size:Rat.t -> item_id:int -> decision;
  on_departure : now:Rat.t -> bins:Bin.view list -> item_id:int -> unit;
  persistence : persistence;
}

type t = {
  name : string;
  spawn : capacity:Rat.t -> handlers;
  first_fit : string option;
}

let make ~name spawn = { name; spawn; first_fit = None }

let no_departure_handler ~now:_ ~bins:_ ~item_id:_ = ()

let stateless ~name choose =
  let spawn ~capacity =
    {
      on_arrival =
        (fun ~now ~bins ~size ~item_id:_ -> choose ~capacity ~now ~bins ~size);
      on_departure = no_departure_handler;
      persistence = Stateless;
    }
  in
  { name; spawn; first_fit = None }
