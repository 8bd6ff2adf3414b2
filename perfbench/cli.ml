(* Argument parsing, the result line, and the exactness pin shared by
   the harnesses. *)

open Dbp_num
open Dbp_core

let fail = Client.fail
let report fmt = Printf.ksprintf print_endline fmt

(* ---- output --------------------------------------------------------- *)

let metric (name, value, unit) =
  if not (Float.is_finite value) then fail "metric %s is %f" name value;
  Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name value unit

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", " (List.map metric metrics))

(* ---- arguments ------------------------------------------------------ *)

let parse_args args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> fail "unexpected argument %S" a
  in
  go [] args

let arg args k =
  match List.assoc_opt k args with Some v -> v | None -> fail "missing --%s" k

let workload args =
  match Workloads.find (arg args "workload") with
  | Some w -> w
  | None -> fail "unknown workload %S" (arg args "workload")

(* ---- the exactness pin ---------------------------------------------- *)

(* Best Fit on the 50k-item seed-42 default-spec instance: the cost
   string every engine change must keep. *)
let best_fit_pin = "525515143/5000"

let check_pin () =
  let inst =
    Dbp_workload.Generator.generate ~seed:42L
      { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 50_000 }
  in
  let policy =
    match Algorithms.find "best-fit" with Some p -> p | None -> fail "best-fit missing"
  in
  let cost = Rat.to_string (Simulator.run ~policy inst).Packing.total_cost in
  if cost <> best_fit_pin then fail "Best Fit 50k seed-42 pin broken: %s, want %s" cost best_fit_pin

