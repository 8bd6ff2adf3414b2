(* Lint driver: source discovery, parsing, baseline bookkeeping and
   report rendering.  The CLI front end is [bin/main.ml]'s `dbp check`;
   the dune `@lint` alias runs the same entry points. *)

type report = {
  findings : Finding.t list;  (* new findings, not in the baseline *)
  baselined : int;  (* findings suppressed by the baseline *)
  stale_baseline : string list;  (* baseline entries that no longer fire *)
  files_scanned : int;
}

(* ---- parsing -------------------------------------------------------- *)

let lint_source ~path ~source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | structure -> Rules.check ~path structure
  | exception Syntaxerr.Error _ ->
      let pos = lexbuf.Lexing.lex_curr_p in
      [
        Finding.make ~rule:"parse" ~severity:Finding.Error ~path
          ~line:pos.Lexing.pos_lnum
          ~col:(pos.Lexing.pos_cnum - pos.Lexing.pos_bol)
          "syntax error: file does not parse";
      ]
  | exception e ->
      [
        Finding.make ~rule:"parse" ~severity:Finding.Error ~path ~line:1
          ~col:0
          (Printf.sprintf "cannot parse: %s" (Printexc.to_string e));
      ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file path = lint_source ~path ~source:(read_file path)

(* ---- source discovery ----------------------------------------------- *)

let skip_dirs = [ "_build"; ".git"; "_opam"; "node_modules" ]

let is_ml path =
  String.length path > 3 && String.sub path (String.length path - 3) 3 = ".ml"

let rec collect acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if List.mem entry skip_dirs then acc
           else collect acc (Filename.concat path entry))
         acc
  else if is_ml path then path :: acc
  else acc

let discover ~roots =
  List.fold_left
    (fun acc root ->
      if Sys.file_exists root then collect acc root
      else failwith (Printf.sprintf "lint root %s does not exist" root))
    [] roots
  |> List.sort_uniq String.compare

(* ---- baseline ------------------------------------------------------- *)

let load_baseline path =
  if not (Sys.file_exists path) then []
  else
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line ->
              let line = String.trim line in
              if line = "" || String.length line > 0 && line.[0] = '#' then
                go acc
              else go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])

let baseline_header =
  "# dbp lint baseline — accepted findings, one fingerprint per line:\n\
   # rule|path|m<message-hash>|<occurrence>\n\
   # (position-independent: edits above a finding do not invalidate it)\n\
   # Regenerate with: dbp check --lint --update-baseline\n"

(* ---- fingerprints ---------------------------------------------------- *)

(* Occurrence-indexed fingerprints: [rule|path|m<hash>|k] where [k]
   numbers findings sharing the same rule, path and message, in
   position order.  Position-independent (an edit above a finding does
   not shift its identity), yet unique when the same message fires
   several times in one file. *)
let fingerprints findings =
  let seen = Hashtbl.create 16 in
  List.map
    (fun f ->
      let base = Finding.fingerprint f in
      let k = match Hashtbl.find_opt seen base with Some k -> k | None -> 0 in
      Hashtbl.replace seen base (k + 1);
      (f, Printf.sprintf "%s|%d" base k))
    (List.sort Finding.compare findings)

let save_baseline ~path findings =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc baseline_header;
      List.iter
        (fun (_, fp) -> output_string oc (fp ^ "\n"))
        (fingerprints findings))

(* ---- running -------------------------------------------------------- *)

let report_of ~baseline ~files_scanned all =
  let with_fps = fingerprints all in
  let matched = Hashtbl.create 16 in
  let findings, baselined =
    List.fold_left
      (fun (fresh, n) (f, fp) ->
        if List.mem fp baseline then begin
          Hashtbl.replace matched fp ();
          (fresh, n + 1)
        end
        else (f :: fresh, n))
      ([], 0) with_fps
  in
  let stale_baseline =
    List.filter (fun fp -> not (Hashtbl.mem matched fp)) baseline
  in
  {
    findings = List.rev findings;
    baselined;
    stale_baseline;
    files_scanned;
  }

let collect ~roots () =
  let files = discover ~roots in
  (List.concat_map lint_file files, List.length files)

let run ?(baseline = []) ~roots () =
  let all, files_scanned = collect ~roots () in
  report_of ~baseline ~files_scanned all

let run_sources ?(baseline = []) sources =
  report_of ~baseline ~files_scanned:(List.length sources)
    (List.concat_map (fun (path, source) -> lint_source ~path ~source) sources)

let errors report =
  List.filter (fun f -> f.Finding.severity = Finding.Error) report.findings

(* [--strict]: any new finding fails.  Default: only errors fail. *)
let exit_code ?(strict = false) report =
  if strict then if report.findings = [] then 0 else 1
  else if errors report = [] then 0
  else 1

(* ---- rendering ------------------------------------------------------ *)

let render_human report =
  let buf = Buffer.create 1024 in
  List.iter
    (fun f -> Buffer.add_string buf (Finding.to_human f ^ "\n"))
    report.findings;
  List.iter
    (fun fp ->
      Buffer.add_string buf
        (Printf.sprintf "stale baseline entry (no longer fires): %s\n" fp))
    report.stale_baseline;
  Buffer.add_string buf
    (Printf.sprintf
       "lint: %d file(s) scanned, %d finding(s) (%d error(s)), %d baselined\n"
       report.files_scanned
       (List.length report.findings)
       (List.length (errors report))
       report.baselined);
  Buffer.contents buf

let render_json report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"version\": 1,\n  \"findings\": [\n";
  List.iteri
    (fun i f ->
      Buffer.add_string buf ("    " ^ Finding.to_json f);
      if i < List.length report.findings - 1 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n')
    report.findings;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"summary\": {\"files_scanned\": %d, \"findings\": %d, \"errors\": \
        %d, \"baselined\": %d, \"stale_baseline\": %d}\n"
       report.files_scanned
       (List.length report.findings)
       (List.length (errors report))
       report.baselined
       (List.length report.stale_baseline));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
