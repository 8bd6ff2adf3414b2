(* Dense exact-rational resource vectors (see vec.mli).  The
   representation is a plain Rat.t array, transparent inside this
   module only; all construction paths copy, so values are immutable
   from the outside. *)

type t = Rat.t array

let make = function
  | [] -> invalid_arg "Vec.make: empty component list"
  | comps -> Array.of_list comps

let of_array a =
  if Array.length a = 0 then invalid_arg "Vec.of_array: empty array";
  Array.copy a

let init d f =
  if d < 1 then invalid_arg "Vec.init: dims < 1";
  Array.init d f

let scalar r = [| r |]

let const ~dims r = init dims (fun _ -> r)
let zero ~dims = const ~dims Rat.zero
let ones ~dims = const ~dims Rat.one

let dim = Array.length
let get (v : t) i = v.(i)
let to_list = Array.to_list
let to_array = Array.copy

let check_dims op a b =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" op
         (Array.length a) (Array.length b))

let add a b =
  check_dims "add" a b;
  Array.init (Array.length a) (fun i -> Rat.add a.(i) b.(i))

let sub a b =
  check_dims "sub" a b;
  Array.init (Array.length a) (fun i -> Rat.sub a.(i) b.(i))

let cmax a b =
  check_dims "cmax" a b;
  Array.init (Array.length a) (fun i -> Rat.max a.(i) b.(i))

let equal a b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (Rat.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let compare a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= Array.length a then 0
      else
        let c = Rat.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let le a b =
  check_dims "le" a b;
  let rec go i =
    i >= Array.length a || (Rat.(a.(i) <= b.(i)) && go (i + 1))
  in
  go 0

let is_nonneg v = Array.for_all (fun c -> Rat.sign c >= 0) v
let has_positive v = Array.exists (fun c -> Rat.sign c > 0) v
let is_zero v = Array.for_all Rat.is_zero v

let truncate v ~dims =
  if dims < 1 || dims > Array.length v then
    invalid_arg "Vec.truncate: dims out of range";
  Array.sub v 0 dims

let max_component v =
  Array.fold_left Rat.max v.(0) v

let sum v = Array.fold_left Rat.add Rat.zero v

let max_norm ~capacity v =
  check_dims "max_norm" v capacity;
  let best = ref (Rat.div v.(0) capacity.(0)) in
  for i = 1 to Array.length v - 1 do
    best := Rat.max !best (Rat.div v.(i) capacity.(i))
  done;
  !best

let sum_norm ~capacity v =
  check_dims "sum_norm" v capacity;
  let acc = ref Rat.zero in
  for i = 0 to Array.length v - 1 do
    acc := Rat.add !acc (Rat.div v.(i) capacity.(i))
  done;
  !acc

let to_string v =
  String.concat "," (Array.to_list (Array.map Rat.to_string v))

let of_string s =
  if s = "" then failwith "Vec.of_string: empty string";
  String.split_on_char ',' s |> List.map Rat.of_string |> make

let pp fmt v =
  Format.pp_print_string fmt (to_string v)
