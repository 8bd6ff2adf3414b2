open Dbp_num
open Test_util

let test_normalisation () =
  check_rat "6/4 = 3/2" (r 3 2) (r 6 4);
  check_rat "-6/4 = -3/2" (r (-3) 2) (r 6 (-4));
  check_rat "0/7 = 0" Rat.zero (r 0 7);
  Alcotest.(check int) "num of 3/2" 3 (Rat.num (r 6 4));
  Alcotest.(check int) "den of 3/2" 2 (Rat.den (r 6 4));
  Alcotest.(check int) "den positive" 2 (Rat.den (r 6 (-4)));
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () ->
      ignore (Rat.make 1 0))

let test_arithmetic () =
  check_rat "1/2 + 1/3" (r 5 6) (Rat.add (r 1 2) (r 1 3));
  check_rat "1/2 - 1/3" (r 1 6) (Rat.sub (r 1 2) (r 1 3));
  check_rat "2/3 * 3/4" (r 1 2) (Rat.mul (r 2 3) (r 3 4));
  check_rat "1/2 / 1/4" (ri 2) (Rat.div (r 1 2) (r 1 4));
  check_rat "neg" (r (-1) 2) (Rat.neg (r 1 2));
  check_rat "abs" (r 1 2) (Rat.abs (r (-1) 2));
  check_rat "inv" (r 2 3) (Rat.inv (r 3 2));
  check_rat "inv negative" (r (-2) 3) (Rat.inv (r (-3) 2));
  check_rat "mul_int" (r 3 2) (Rat.mul_int (r 1 2) 3);
  check_rat "div_int" (r 1 6) (Rat.div_int (r 1 2) 3);
  check_rat "sum" (ri 2) (Rat.sum [ r 1 2; r 1 2; Rat.one ]);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Rat.div Rat.one Rat.zero))

let test_comparisons () =
  Alcotest.(check bool) "1/2 < 2/3" true Rat.(r 1 2 < r 2 3);
  Alcotest.(check bool) "-1/2 < 1/3" true Rat.(r (-1) 2 < r 1 3);
  Alcotest.(check bool) "equal" true (Rat.equal (r 2 4) (r 1 2));
  Alcotest.(check int) "sign pos" 1 (Rat.sign (r 1 2));
  Alcotest.(check int) "sign neg" (-1) (Rat.sign (r (-1) 2));
  Alcotest.(check int) "sign zero" 0 (Rat.sign Rat.zero);
  check_rat "min" (r 1 3) (Rat.min (r 1 3) (r 1 2));
  check_rat "max" (r 1 2) (Rat.max (r 1 3) (r 1 2));
  check_rat "min_list" (r (-1) 2) (Rat.min_list [ r 1 2; r (-1) 2; Rat.zero ]);
  check_rat "max_list" (r 1 2) (Rat.max_list [ r 1 2; r (-1) 2; Rat.zero ])

let test_rounding () =
  Alcotest.(check int) "floor 7/2" 3 (Rat.floor (r 7 2));
  Alcotest.(check int) "ceil 7/2" 4 (Rat.ceil (r 7 2));
  Alcotest.(check int) "floor -7/2" (-4) (Rat.floor (r (-7) 2));
  Alcotest.(check int) "ceil -7/2" (-3) (Rat.ceil (r (-7) 2));
  Alcotest.(check int) "floor 4" 4 (Rat.floor (ri 4));
  Alcotest.(check int) "ceil 4" 4 (Rat.ceil (ri 4));
  Alcotest.(check int) "ceil 0" 0 (Rat.ceil Rat.zero);
  Alcotest.(check bool) "is_integer 4/2" true (Rat.is_integer (r 4 2));
  Alcotest.(check bool) "is_integer 1/2" false (Rat.is_integer (r 1 2))

let test_strings () =
  Alcotest.(check string) "to_string frac" "7/2" (Rat.to_string (r 7 2));
  Alcotest.(check string) "to_string int" "4" (Rat.to_string (ri 4));
  check_rat "of_string frac" (r 7 2) (Rat.of_string "7/2");
  check_rat "of_string int" (ri (-3)) (Rat.of_string "-3");
  check_rat "of_string spaces" (r 1 2) (Rat.of_string " 1 / 2 ");
  Alcotest.check_raises "of_string garbage" (Failure "Rat.of_string: x") (fun () ->
      ignore (Rat.of_string "x"));
  (* [make] and [of_int] would raise Division_by_zero and Overflow on
     these; the parser reports them as malformed input. *)
  List.iter
    (fun s ->
      Alcotest.check_raises ("of_string " ^ s) (Failure ("Rat.of_string: " ^ s))
        (fun () -> ignore (Rat.of_string s)))
    [ "1/0"; "-4611686018427387904"; "1/-4611686018427387904"; "0x4000000000000000" ]

let test_of_float () =
  check_rat "of_float 0.5" (r 1 2) (Rat.of_float 0.5);
  check_rat "of_float grid" (r 1 3) (Rat.of_float ~den:3 0.3334);
  check_rat "of_float negative" (r (-1) 4) (Rat.of_float (-0.25));
  Alcotest.(check bool) "of_float nan rejected" true
    (try
       ignore (Rat.of_float Float.nan);
       false
     with Invalid_argument _ -> true)

let test_overflow () =
  let big = Rat.make max_int 1 in
  Alcotest.check_raises "add overflow" Rat.Overflow (fun () ->
      ignore (Rat.add big big));
  Alcotest.check_raises "mul overflow" Rat.Overflow (fun () ->
      ignore (Rat.mul big (ri 2)));
  (* Cross-reduction keeps this in range: max_int is divisible by 3, so
     max_int * 1/3 reduces before multiplying. *)
  check_rat "cross-reduced mul" (ri (max_int / 3)) (Rat.mul big (r 1 3))

let prop_tests =
  let open QCheck2 in
  let pair = Gen.pair (rat_gen ()) (rat_gen ()) in
  let triple = Gen.triple (rat_gen ()) (rat_gen ()) (rat_gen ()) in
  [
    qcheck "add commutative" pair (fun (a, b) ->
        Rat.equal (Rat.add a b) (Rat.add b a));
    qcheck "add associative" triple (fun (a, b, c) ->
        Rat.equal (Rat.add a (Rat.add b c)) (Rat.add (Rat.add a b) c));
    qcheck "mul distributes" triple (fun (a, b, c) ->
        Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)));
    qcheck "sub then add round-trips" pair (fun (a, b) ->
        Rat.equal a (Rat.add (Rat.sub a b) b));
    qcheck "compare antisymmetric" pair (fun (a, b) ->
        Rat.compare a b = -Rat.compare b a);
    qcheck "compare matches float" pair (fun (a, b) ->
        let c = Rat.compare a b in
        let f = Float.compare (Rat.to_float a) (Rat.to_float b) in
        c = f || (c <> 0 && f = 0));
    qcheck "to_string round-trips" (rat_gen ()) (fun a ->
        Rat.equal a (Rat.of_string (Rat.to_string a)));
    qcheck "normalised gcd" (rat_gen ()) (fun a ->
        let rec gcd x y = if y = 0 then x else gcd y (x mod y) in
        Rat.num a = 0 || gcd (abs (Rat.num a)) (Rat.den a) = 1);
    qcheck "floor <= x < floor + 1" (rat_gen ()) (fun a ->
        let f = Rat.floor a in
        let lo = ri f and hi = ri (f + 1) in
        Rat.(lo <= a) && Rat.(a < hi));
    qcheck "ceil = -floor(-x)" (rat_gen ()) (fun a ->
        Rat.ceil a = -Rat.floor (Rat.neg a));
    qcheck "inv involutive (nonzero)"
      (pos_rat_gen ())
      (fun a -> Rat.equal a (Rat.inv (Rat.inv a)));
  ]

let suite =
  [
    Alcotest.test_case "normalisation" `Quick test_normalisation;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "rounding" `Quick test_rounding;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "of_float" `Quick test_of_float;
    Alcotest.test_case "overflow" `Quick test_overflow;
  ]
  @ prop_tests

(* Overflow-path comparison: cross-multiplication of these would exceed
   the native range, so the continued-fraction path must answer
   exactly. *)
let test_compare_huge () =
  let near_max = max_int - 1 in
  let a = Rat.make near_max 3 and b = Rat.make (near_max - 3) 3 in
  Alcotest.(check int) "a > b" 1 (Rat.compare a b);
  Alcotest.(check int) "b < a" (-1) (Rat.compare b a);
  (* distinct huge rationals that are equal as floats *)
  let c = Rat.make near_max 7 and d = Rat.make (near_max - 7) 7 in
  Alcotest.(check bool) "floats cannot tell them apart" true
    (Rat.to_float c = Rat.to_float d);
  Alcotest.(check int) "exact comparison can" 1 (Rat.compare c d);
  (* mixed signs through the overflow path *)
  let e = Rat.make (-near_max) 3 in
  Alcotest.(check int) "negative < positive" (-1) (Rat.compare e a);
  Alcotest.(check int) "negative symmetric" 1 (Rat.compare a e);
  Alcotest.(check int) "huge equals itself" 0 (Rat.compare c c);
  (* deep continued fraction: a/b vs (a*2+1)/(b*2+1)-style neighbours *)
  let f = Rat.make near_max (near_max - 1) in
  let g = Rat.make (near_max - 1) (near_max - 2) in
  Alcotest.(check bool) "nested fractions ordered" true
    (Rat.compare f g = -Rat.compare g f && Rat.compare f g <> 0)

let suite =
  suite @ [ Alcotest.test_case "compare beyond 63 bits" `Quick test_compare_huge ]

(* Huge factors reach the overflow edge: both sides must raise, or
   agree exactly. *)
let prop_mul_int =
  let open QCheck2 in
  qcheck "mul_int = mul by of_int"
    (Gen.pair
       (Gen.oneof
          [ rat_gen (); rat_gen ~lo_num:(-max_int) ~hi_num:max_int ~max_den:max_int () ])
       (Gen.oneof [ Gen.int_range (-20) 20; Gen.int; Gen.return min_int ]))
    (fun (a, n) ->
      let product f =
        match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
      in
      match
        (product (fun () -> Rat.mul_int a n), product (fun () -> Rat.mul a (Rat.of_int n)))
      with
      | Ok x, Ok y -> Rat.equal x y && Rat.num x = Rat.num y && Rat.den x = Rat.den y
      | Error e, Error f -> String.equal e f
      | _ -> false)

(* The plain numerals, written out: an optional '-' and 1 to 18
   digits, and for a rational a nonzero denominator. *)
let is_plain_int p =
  let n = String.length p in
  let a = if n > 0 && p.[0] = '-' then 1 else 0 in
  n - a >= 1
  && n - a <= 18
  && String.for_all (function '0' .. '9' -> true | _ -> false) (String.sub p a (n - a))

let is_plain_rat s =
  match String.split_on_char '/' s with
  | [ n ] -> is_plain_int n
  | [ n; d ] -> is_plain_int n && is_plain_int d && int_of_string d <> 0
  | _ -> false

(* The reader runs on a slice of a larger string, so reading past
   either end would show. *)
let prop_plain =
  let open QCheck2 in
  qcheck ~count:2000 "plain reader = of_string where it reads, refuses the rest"
    (Gen.map (String.concat "")
       (Gen.list_size (Gen.int_range 1 4)
          (Gen.oneof
             [
               Gen.map (fun k -> String.init k (fun i -> Char.chr (48 + ((i * 7) + k) mod 10))) (Gen.int_range 1 20);
               Gen.map string_of_int (Gen.int_range 0 99);
               Gen.oneofl [ "-"; "/"; "0"; "+"; "0x1F"; "_"; " "; "1_000"; string_of_int min_int ];
             ])))
    (fun s ->
      let framed = "7/" ^ s ^ "/9" and a = 2 and b = 2 + String.length s in
      let rat =
        match Rat.of_plain framed a b with
        | q -> is_plain_rat s && Rat.equal q (Rat.of_string s)
        | exception Rat.Not_plain -> not (is_plain_rat s)
      and int =
        match Rat.plain_int framed a b with
        | i -> is_plain_int s && i = int_of_string s
        | exception Rat.Not_plain -> not (is_plain_int s)
      in
      rat && int)

let suite = suite @ [ prop_mul_int; prop_plain ]
