(** Exact rational arithmetic on native (63-bit) integers.

    All values are kept normalised: the denominator is strictly positive
    and the numerator and denominator are coprime.  Every arithmetic
    operation checks for machine-integer overflow and raises {!Overflow}
    rather than silently wrapping.  This module is the numeric backbone
    of the whole reproduction: item sizes, event times, bin costs and
    competitive ratios are all exact rationals, so the adversarial
    constructions of Theorems 1 and 2 (which manipulate infinitesimals
    [epsilon] and [delta]) produce costs that match the paper's closed
    forms exactly. *)

type t = private { num : int; den : int }

exception Overflow
(** Raised when an intermediate or final value does not fit in a native
    integer. *)

val zero : t
val one : t
val two : t
val minus_one : t

val make : int -> int -> t
(** [make num den] is the normalised rational [num/den].
    @raise Division_by_zero if [den = 0]. *)

val of_int : int -> t

val num : t -> int
val den : t -> int

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero on division by {!zero}. *)

val neg : t -> t
val abs : t -> t
val inv : t -> t
(** @raise Division_by_zero on {!zero}. *)

val mul_int : t -> int -> t
val div_int : t -> int -> t

val sum : t list -> t
val min_list : t list -> t
(** @raise Invalid_argument on the empty list. *)

val max_list : t list -> t
(** @raise Invalid_argument on the empty list. *)

(** {1 Comparisons} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val min : t -> t -> t
val max : t -> t -> t
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t

val is_zero : t -> bool
val is_integer : t -> bool

(** {1 Rounding} *)

val floor : t -> int
(** Largest integer [<= t]. *)

val ceil : t -> int
(** Smallest integer [>= t]. *)

(** {1 Conversions} *)

val to_float : t -> float

val of_float : ?den:int -> float -> t
(** [of_float ~den f] quantises [f] onto the grid of multiples of
    [1/den] (default [den = 1_000_000]), rounding to nearest.  Keeping
    all randomly generated quantities on a common coarse grid keeps
    denominators small and sums far from overflow. *)

val to_string : t -> string
(** ["7/2"], or ["7"] when the denominator is 1. *)

val of_string : string -> t
(** Parses the {!to_string} format as well as plain integers (each
    part as [int_of_string] reads it, surrounding blanks allowed).
    @raise Failure on malformed input, which includes a zero
    denominator and a part equal to [min_int]: no [Division_by_zero]
    or {!Overflow} escapes. *)

exception Not_plain
(** Raised, without a backtrace, by {!plain_int} and {!of_plain} on
    any numeral they do not read. *)

val plain_int : string -> int -> int -> int
(** [plain_int s a b] reads [s.[a .. b-1]] in place as a plain
    integer: an optional ['-'] and 1 to 18 decimal digits, nothing
    else.  Such a numeral never overflows, and it means what
    [int_of_string] makes of it.
    @raise Not_plain on any other bytes (['+'], ["0x"], ['_'], blanks,
    19 or more digits).
    @raise Invalid_argument if [a < 0] or [b > String.length s]. *)

val of_plain : string -> int -> int -> t
(** [of_plain s a b] reads [s.[a .. b-1]] in place as [n] or [n/d]
    with {!plain_int} parts and [d <> 0].  Whenever it returns, the
    value equals [of_string (String.sub s a (b - a))].  It allocates
    only the result.
    @raise Not_plain on any other bytes, a zero denominator included.
    @raise Invalid_argument if [a < 0] or [b > String.length s]. *)

val pp : Format.formatter -> t -> unit
val pp_float : Format.formatter -> t -> unit
(** Prints a 6-decimal floating approximation, for human-facing tables. *)

val hash : t -> int
