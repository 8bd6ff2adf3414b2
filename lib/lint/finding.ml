type severity = Error | Warning

type t = {
  rule : string;
  severity : severity;
  path : string;
  line : int;
  col : int;
  message : string;
}

let severity_to_string = function Error -> "error" | Warning -> "warning"

let make ~rule ~severity ~path ~line ~col message =
  { rule; severity; path; line; col; message }

let compare a b =
  let c = String.compare a.path b.path in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

(* Stable identity of a finding across runs.  Positions are excluded:
   the old [rule|path|line|col] scheme meant any unrelated edit above a
   baselined finding shifted its line and invalidated the whole file's
   baseline.  The identity is now the message content itself —
   [rule|path|m<hash>] — made unique by an occurrence index appended at
   the report level ([Lint.fingerprints]) when the same message fires
   more than once in one file. *)
let message_hash t =
  (* First 8 hex chars of the MD5 — stable across runs and OCaml
     versions, unlike [Hashtbl.hash]. *)
  String.sub (Digest.to_hex (Digest.string t.message)) 0 8

let fingerprint t = Printf.sprintf "%s|%s|m%s" t.rule t.path (message_hash t)

let to_human t =
  Printf.sprintf "%s:%d:%d: [%s/%s] %s" t.path t.line t.col t.rule
    (severity_to_string t.severity)
    t.message

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  Printf.sprintf
    "{\"rule\": \"%s\", \"severity\": \"%s\", \"path\": \"%s\", \"line\": \
     %d, \"col\": %d, \"message\": \"%s\"}"
    (json_escape t.rule)
    (severity_to_string t.severity)
    (json_escape t.path) t.line t.col (json_escape t.message)
