type t = { num : int; den : int }

exception Overflow

(* Overflow-checked native integer arithmetic.  [min_int] is excluded
   from the representable range so that [abs]/[neg] are total. *)

let add_exn a b =
  let s = a + b in
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then
    raise Overflow
  else s

let mul_exn a b =
  (* Both factors below 2^31 in magnitude cannot overflow a 63-bit
     product; one [lor]+compare decides it, sparing the hot path the
     division-based check.  [abs min_int] is negative, so min_int
     lands in the slow branch and raises there. *)
  if Stdlib.abs a lor Stdlib.abs b < 0x4000_0000 then a * b
  else if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a || a = min_int || b = min_int then raise Overflow else p

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let gcd a b = gcd (Stdlib.abs a) (Stdlib.abs b)

let zero = { num = 0; den = 1 }
let one = { num = 1; den = 1 }
let two = { num = 2; den = 1 }
let minus_one = { num = -1; den = 1 }

let make num den =
  if den = 0 then raise Division_by_zero
  else if num = min_int || den = min_int then raise Overflow
  else
    let num, den = if den < 0 then (-num, -den) else (num, den) in
    if num = 0 then zero
    else
      let g = gcd num den in
      { num = num / g; den = den / g }

let of_int n = if n = min_int then raise Overflow else { num = n; den = 1 }
let num t = t.num
let den t = t.den

(* a/b + c/d with cross-reduction of the denominators:
   g = gcd(b,d); result = (a*(d/g) + c*(b/g)) / (b/g*d/g*g). *)
let add x y =
  let g = gcd x.den y.den in
  let dx = x.den / g and dy = y.den / g in
  let n = add_exn (mul_exn x.num dy) (mul_exn y.num dx) in
  let d = mul_exn (mul_exn dx dy) g in
  make n d

let neg x = { x with num = -x.num }
let sub x y = add x (neg y)

(* a/b * c/d with cross-reduction: gcd(a,d) and gcd(c,b) first. *)
let mul x y =
  let g1 = gcd x.num y.den and g2 = gcd y.num x.den in
  let g1 = if g1 = 0 then 1 else g1 and g2 = if g2 = 0 then 1 else g2 in
  let n = mul_exn (x.num / g1) (y.num / g2) in
  let d = mul_exn (x.den / g2) (y.den / g1) in
  make n d

let inv x =
  if x.num = 0 then raise Division_by_zero
  else if x.num < 0 then { num = -x.den; den = -x.num }
  else { num = x.den; den = x.num }

let div x y = mul x (inv y)
(* [mul x (of_int n)] without its final gcd: with [g = gcd n x.den],
   [x.num * (n / g)] and [x.den / g] are already coprime, so the value
   and every [Overflow] are those of the general product. *)
let mul_int x n =
  if n = min_int then raise Overflow
  else
    let g = gcd n x.den in
    let num = mul_exn x.num (n / g) in
    if num = 0 then zero
    else if num = min_int then raise Overflow
    else { num; den = x.den / g }
let div_int x n = div x (of_int n)
let sum l = List.fold_left add zero l

let to_float_unchecked x = float_of_int x.num /. float_of_int x.den

(* Exact comparison of non-negative a/b vs c/d (b, d > 0) by continued
   fractions: compare integer parts, then the inverted fractional
   parts.  Terminates because (b, r1) / (d, r2) shrink as in the
   Euclidean algorithm; never overflows. *)
let rec compare_pos a b c d =
  let q1 = a / b and q2 = c / d in
  if q1 <> q2 then Int.compare q1 q2
  else
    let r1 = a mod b and r2 = c mod d in
    if r1 = 0 && r2 = 0 then 0
    else if r1 = 0 then -1
    else if r2 = 0 then 1
    else compare_pos d r2 b r1

let compare x y =
  (* Fast paths: equal denominators (both operands are normalised, so
     comparing numerators is exact), then cross-multiplication when it
     fits; otherwise the exact continued-fraction comparison (no float
     fallback — floats would misorder close rationals). *)
  if x.den = y.den then Int.compare x.num y.num
  else
  match (mul_exn x.num y.den, mul_exn y.num x.den) with
  | a, b -> Int.compare a b
  | exception Overflow -> (
      match (Int.compare x.num 0, Int.compare y.num 0) with
      | sx, sy when sx <> sy -> Int.compare sx sy
      | 1, _ -> compare_pos x.num x.den y.num y.den
      | -1, _ -> compare_pos (-y.num) y.den (-x.num) x.den
      | _ -> 0)

let equal x y = x.num = y.num && x.den = y.den
let sign x = Int.compare x.num 0
let min x y = if compare x y <= 0 then x else y
let max x y = if compare x y >= 0 then x else y

let min_list = function
  | [] -> invalid_arg "Rat.min_list: empty list"
  | x :: rest -> List.fold_left min x rest

let max_list = function
  | [] -> invalid_arg "Rat.max_list: empty list"
  | x :: rest -> List.fold_left max x rest

let is_zero x = x.num = 0
let is_integer x = x.den = 1

let floor x =
  if x.num >= 0 then x.num / x.den
  else
    let q = x.num / x.den in
    if Stdlib.( = ) (x.num mod x.den) 0 then q else Stdlib.( - ) q 1

let ceil x =
  if x.num <= 0 then x.num / x.den
  else
    let q = x.num / x.den in
    if Stdlib.( = ) (x.num mod x.den) 0 then q else Stdlib.( + ) q 1

let to_float = to_float_unchecked

let of_float ?(den = 1_000_000) f =
  if not (Float.is_finite f) then invalid_arg "Rat.of_float: not finite"
  else
    let scaled = Float.round (f *. float_of_int den) in
    if Stdlib.( >= ) (Float.abs scaled) 4.0e18 then raise Overflow
    else make (int_of_float scaled) den

let to_string x =
  if Stdlib.( = ) x.den 1 then string_of_int x.num
  else Printf.sprintf "%d/%d" x.num x.den

(* One part of [s] as [int_of_string] reads it.  [min_int] is refused
   like a malformed part: [make] and [of_int] would raise [Overflow]. *)
let part_of_string s part =
  match int_of_string_opt (String.trim part) with
  | Some n when not (Int.equal n min_int) -> n
  | _ -> failwith ("Rat.of_string: " ^ s)

let of_string s =
  match String.index_opt s '/' with
  | None -> of_int (part_of_string s s)
  | Some i ->
      let n = part_of_string s (String.sub s 0 i) in
      let d =
        part_of_string s
          (String.sub s (Stdlib.( + ) i 1)
             (Stdlib.( - ) (String.length s) (Stdlib.( + ) i 1)))
      in
      (* a zero denominator is malformed too, not [Division_by_zero] *)
      if Int.equal d 0 then failwith ("Rat.of_string: " ^ s) else make n d

exception Not_plain

let plain_int s a b =
  if a < 0 || b > String.length s then invalid_arg "Rat.plain_int";
  let neg = a < b && Char.equal (String.unsafe_get s a) '-' in
  let a = if neg then a + 1 else a in
  if a >= b || b - a > 18 then raise_notrace Not_plain;
  let v = ref 0 in
  for i = a to b - 1 do
    let d = Char.code (String.unsafe_get s i) - 48 in
    if d < 0 || d > 9 then raise_notrace Not_plain;
    v := (!v * 10) + d
  done;
  if neg then - !v else !v

(* The index of the first '/' in [s.[i .. b-1]], or [b]. *)
let rec find_slash s i b =
  if i >= b || Char.equal (String.unsafe_get s i) '/' then i
  else find_slash s (i + 1) b

(* 18 digits stay below [max_int], so no part overflows or is
   [min_int], and [make] and [of_int] raise nothing here. *)
let of_plain s a b =
  if a < 0 || b > String.length s then invalid_arg "Rat.of_plain";
  let slash = find_slash s a b in
  if Int.equal slash b then of_int (plain_int s a b)
  else
    let d = plain_int s (slash + 1) b in
    if Int.equal d 0 then raise_notrace Not_plain;
    make (plain_int s a slash) d

let pp fmt x = Format.pp_print_string fmt (to_string x)
let pp_float fmt x = Format.fprintf fmt "%.6g" (to_float x)
(* Typed splitmix-style mixer over the two int fields: avoids the
   polymorphic [Hashtbl.hash] (R3) and avalanches small numerators and
   denominators better than it. *)
let hash x =
  let mix h k =
    let k = k * 0x2545F4914F6CDD1D in
    let k = k lxor (k lsr 29) in
    ((h * 31) lxor k) land max_int
  in
  mix (mix 0 x.num) x.den
let abs x = if Stdlib.( < ) x.num 0 then neg x else x

let ( = ) = equal
let ( < ) x y = Stdlib.( < ) (compare x y) 0
let ( <= ) x y = Stdlib.( <= ) (compare x y) 0
let ( > ) x y = Stdlib.( > ) (compare x y) 0
let ( >= ) x y = Stdlib.( >= ) (compare x y) 0
let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
