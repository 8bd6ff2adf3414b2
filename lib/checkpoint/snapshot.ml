open Dbp_num
open Dbp_core
open Dbp_faults

(* The versioned checkpoint image: schema "dbp-checkpoint/1".

   Same NDJSON discipline as the trace ("dbp-trace/2"): one flat JSON
   object per line, integers and strings only, rationals rendered as
   exact strings so a decoded snapshot reconstructs the engine
   bit-identically.  Float-valued state (histogram observations, the
   injector's launch-failure probability) is rendered with "%h" hex
   floats, which round-trip without rounding.  The last line is a
   footer carrying the line count, so a truncated file (the crash the
   subsystem exists for) is always detected. *)

let schema = "dbp-checkpoint/1"
let schema_v2 = "dbp-checkpoint/2"

type meta = {
  policy : string;
  seed : int64;
  events_applied : int;
  trace_seq : int;
}

type payload =
  | Engine of Simulator.Online.Frozen.t
  | Faults of Injector.Frozen.t
  | Repack of Dbp_repack.Runner.Frozen.t
  | Vector of Vec_simulator.Online.Frozen.t

type t = {
  meta : meta;
  metrics : Dbp_obs.Metrics.dump option;
  payload : payload;
}

let schema_of t =
  match t.payload with Vector _ -> schema_v2 | _ -> schema

let engine_of t =
  match t.payload with
  | Engine e -> e
  | Faults f -> f.Injector.Frozen.f_engine
  | Repack r -> r.Dbp_repack.Runner.Frozen.r_engine
  | Vector _ ->
      invalid_arg "Snapshot.engine_of: a vector snapshot has no scalar engine"

let kind_name t =
  match t.payload with
  | Engine _ -> "engine"
  | Faults _ -> "faults"
  | Repack _ -> "repack"
  | Vector _ -> "vector"

(* ---- emission ------------------------------------------------------- *)

let escape = Dbp_obs.Trace_event.escape

let rat = Rat.to_string
let opt_rat = function None -> "-" | Some r -> rat r
let hex f = Printf.sprintf "%h" f
let int_of_bool b = if b then 1 else 0

let placements_str ps =
  String.concat " "
    (List.map (fun (t, id) -> Printf.sprintf "%s@%d" (rat t) id) ps)

let active_str xs =
  String.concat " "
    (List.map (fun (id, s) -> Printf.sprintf "%d:%s" id (rat s)) xs)

let vactive_str xs =
  String.concat " "
    (List.map (fun (id, s) -> Printf.sprintf "%d:%s" id (Vec.to_string s)) xs)

let rats_str rs = String.concat " " (List.map rat rs)
let floats_str fs = String.concat " " (List.map hex (Array.to_list fs))

(* Shared between the injector's optional budget line and the repack
   core line: spec in its canonical string form, balance and odometers
   exact. *)
let budget_fields (b : Dbp_repack.Budget.Frozen.t) =
  Printf.sprintf
    "\"budget\":\"%s\",\"tokens\":\"%s\",\"moves\":%d,\"moved_volume\":\"%s\",\"denied\":%d"
    (escape (Dbp_repack.Budget.spec_to_string b.Dbp_repack.Budget.Frozen.fb_spec))
    (rat b.Dbp_repack.Budget.Frozen.fb_tokens)
    b.Dbp_repack.Budget.Frozen.fb_moves
    (rat b.Dbp_repack.Budget.Frozen.fb_moved_volume)
    b.Dbp_repack.Budget.Frozen.fb_denied

let victim_str = function
  | Fault_plan.Any_open -> "any"
  | Fault_plan.Fullest -> "fullest"
  | Fault_plan.Emptiest -> "emptiest"
  | Fault_plan.Bin id -> Printf.sprintf "bin:%d" id

let to_string snap =
  let buf = Buffer.create 4096 in
  let lines = ref 0 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        incr lines;
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let capacity_str, clock, violations, bin_count, policy_state =
    match snap.payload with
    | Vector v ->
        ( Vec.to_string v.Vec_simulator.Online.Frozen.s_capacity,
          v.s_clock,
          v.s_violations,
          List.length v.s_bins,
          v.s_policy_state )
    | Engine _ | Faults _ | Repack _ ->
        let e = engine_of snap in
        ( rat e.Simulator.Online.Frozen.s_capacity,
          e.s_clock,
          e.s_violations,
          List.length e.s_bins,
          e.s_policy_state )
  in
  line
    "{\"schema\":\"%s\",\"kind\":\"%s\",\"policy\":\"%s\",\"seed\":\"%Ld\",\"events_applied\":%d,\"trace_seq\":%d,\"capacity\":\"%s\",\"clock\":\"%s\",\"violations\":%d,\"bins\":%d,\"metered\":%d%s}"
    (schema_of snap) (kind_name snap) (escape snap.meta.policy) snap.meta.seed
    snap.meta.events_applied snap.meta.trace_seq capacity_str (opt_rat clock)
    violations bin_count
    (int_of_bool (Option.is_some snap.metrics))
    (match policy_state with
    | None -> ""
    | Some blob -> Printf.sprintf ",\"policy_state\":\"%s\"" (escape blob));
  (match snap.payload with
  | Vector v ->
      List.iter
        (fun (b : Vec_simulator.Online.Frozen.bin) ->
          line
            "{\"vbin\":%d,\"tag\":\"%s\",\"cap\":\"%s\",\"opened\":\"%s\",\"closed\":\"%s\",\"max_level\":\"%s\",\"placements\":\"%s\",\"active\":\"%s\"}"
            b.b_id (escape b.b_tag)
            (Vec.to_string b.b_capacity)
            (rat b.b_opened) (opt_rat b.b_closed)
            (Vec.to_string b.b_max_level)
            (placements_str b.b_placements)
            (vactive_str b.b_active))
        v.Vec_simulator.Online.Frozen.s_bins
  | Engine _ | Faults _ | Repack _ ->
      let e = engine_of snap in
      List.iter
        (fun (b : Simulator.Online.Frozen.bin) ->
          line
            "{\"bin\":%d,\"tag\":\"%s\",\"cap\":\"%s\",\"opened\":\"%s\",\"closed\":\"%s\",\"max_level\":\"%s\",\"placements\":\"%s\",\"active\":\"%s\"}"
            b.b_id (escape b.b_tag) (rat b.b_capacity) (rat b.b_opened)
            (opt_rat b.b_closed) (rat b.b_max_level)
            (placements_str b.b_placements)
            (active_str b.b_active))
        e.s_bins);
  (match snap.metrics with
  | None -> ()
  | Some d ->
      List.iter
        (fun (name, v) ->
          line "{\"metric\":\"counter\",\"name\":\"%s\",\"value\":%d}"
            (escape name) v)
        d.Dbp_obs.Metrics.d_counters;
      List.iter
        (fun (name, v) ->
          line "{\"metric\":\"gauge\",\"name\":\"%s\",\"value\":%d}" (escape name)
            v)
        d.d_gauges;
      List.iter
        (fun (name, r) ->
          line "{\"metric\":\"rat_sum\",\"name\":\"%s\",\"value\":\"%s\"}"
            (escape name) (rat r))
        d.d_rat_sums;
      List.iter
        (fun (name, obs) ->
          line "{\"metric\":\"hist\",\"name\":\"%s\",\"values\":\"%s\"}"
            (escape name) (floats_str obs))
        d.d_hists);
  (match snap.payload with
  | Engine _ | Repack _ | Vector _ -> ()
  | Faults f ->
      let open Injector.Frozen in
      let c = f.f_config in
      line
        "{\"inj\":\"config\",\"cseed\":\"%Ld\",\"launch_failure_prob\":\"%s\",\"base_backoff\":\"%s\",\"backoff_cap\":\"%s\",\"max_retries\":%d,\"restart_delay\":\"%s\",\"max_fleet\":%d,\"max_pending\":%d}"
        c.Injector.seed
        (hex c.launch_failure_prob)
        (rat c.base_backoff) (rat c.backoff_cap) c.max_retries
        (rat c.restart_delay)
        (match c.max_fleet with None -> -1 | Some n -> n)
        (match c.max_pending with None -> -1 | Some n -> n);
      let rng_state, rng_inc = f.f_rng in
      line
        "{\"inj\":\"core\",\"rng_state\":\"%Ld\",\"rng_inc\":\"%Ld\",\"seq\":%d,\"next_seg\":%d,\"events_done\":%d,\"segments\":%d,\"queue\":%d,\"faults_injected\":%d,\"faults_skipped\":%d,\"interrupted\":%d,\"interrupted_seconds\":\"%s\",\"resumed\":%d,\"lost\":%d,\"launch_failures\":%d,\"retries\":%d,\"shed\":%d,\"latencies\":\"%s\"}"
        rng_state rng_inc f.f_seq f.f_next_seg f.f_events_done
        (List.length f.f_segments)
        (List.length f.f_queue)
        f.f_faults_injected f.f_faults_skipped f.f_interrupted
        (rat f.f_interrupted_seconds)
        f.f_resumed f.f_lost f.f_launch_failures f.f_retries f.f_shed
        (rats_str f.f_recovery_latencies);
      (match f.f_repack with
      | None -> ()
      | Some (b, rp) ->
          line "{\"inj\":\"repack\",%s,\"rpolicy\":\"%s\"}" (budget_fields b)
            (Dbp_repack.Repack_policy.name rp));
      List.iter
        (fun (s : fseg) ->
          line
            "{\"seg\":%d,\"orig\":%d,\"size\":\"%s\",\"start\":\"%s\",\"deadline\":\"%s\",\"stop\":\"%s\",\"live\":%d}"
            s.fs_id s.fs_orig (rat s.fs_size) (rat s.fs_start)
            (rat s.fs_deadline) (rat s.fs_stop)
            (int_of_bool s.fs_active))
        f.f_segments;
      List.iter
        (fun ((t, rank, qseq), ev) ->
          match ev with
          | F_depart seg ->
              line "{\"q\":\"depart\",\"t\":\"%s\",\"rank\":%d,\"qseq\":%d,\"seg\":%d}"
                (rat t) rank qseq seg
          | F_fault fe ->
              line
                "{\"q\":\"fault\",\"t\":\"%s\",\"rank\":%d,\"qseq\":%d,\"victim\":\"%s\",\"fkind\":\"%s\",\"warning\":\"%s\"}"
                (rat t) rank qseq
                (victim_str fe.Fault_plan.victim)
                (match fe.kind with Crash -> "crash" | Preemption _ -> "preempt")
                (match fe.kind with
                | Crash -> "-"
                | Preemption { warning } -> rat warning)
          | F_dispatch a ->
              line
                "{\"q\":\"dispatch\",\"t\":\"%s\",\"rank\":%d,\"qseq\":%d,\"orig\":%d,\"size\":\"%s\",\"priority\":%d,\"deadline\":\"%s\",\"attempt\":%d,\"evicted_at\":\"%s\",\"key\":%d,\"cancelled\":%d,\"pending\":%d}"
                (rat t) rank qseq a.fa_orig (rat a.fa_size) a.fa_priority
                (rat a.fa_deadline) a.fa_attempt
                (opt_rat a.fa_evicted_at)
                a.fa_key
                (int_of_bool a.fa_cancelled)
                (int_of_bool a.fa_pending))
        f.f_queue);
  (match snap.payload with
  | Engine _ | Faults _ | Vector _ -> ()
  | Repack r ->
      let open Dbp_repack.Runner.Frozen in
      line
        "{\"rp\":\"core\",%s,\"rpolicy\":\"%s\",\"events_done\":%d,\"next_seg\":%d,\"log\":%d,\"bins_closed\":%d,\"reclaimed\":\"%s\"}"
        (budget_fields r.r_budget)
        (Dbp_repack.Repack_policy.name r.r_repack)
        r.r_events_done r.r_next_seg
        (List.length r.r_log)
        r.r_bins_closed (rat r.r_reclaimed);
      List.iteri
        (fun i (old_id, new_id, t) ->
          line "{\"mv\":%d,\"old\":%d,\"new\":%d,\"at\":\"%s\"}" i old_id
            new_id (rat t))
        r.r_log);
  Printf.ksprintf
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    "{\"end\":\"%s\",\"lines\":%d}" (schema_of snap) !lines;
  Buffer.contents buf

(* ---- strict parsing ------------------------------------------------- *)

module T = Dbp_obs.Trace_event

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* Field cursor over one parsed line: every accessor records the key it
   consumed, and [finish_line] rejects leftovers — the same
   unknown-key strictness as the trace parser. *)
type cursor = { cfields : (string * T.value) list; mutable used : string list }

let cursor_of_line line =
  match T.parse_flat_object line with
  | Ok cfields -> { cfields; used = [] }
  | Error msg -> corrupt "%s" msg

let take c key =
  c.used <- key :: c.used;
  List.assoc_opt key c.cfields

let req c key =
  match take c key with
  | Some v -> v
  | None -> corrupt "missing key \"%s\"" key

let fint c key =
  match req c key with
  | T.Int i -> i
  | T.Str _ -> corrupt "key \"%s\" must be an integer" key

let fstr c key =
  match req c key with
  | T.Str s -> s
  | T.Int _ -> corrupt "key \"%s\" must be a string" key

let rat_of key s =
  match Rat.of_string s with
  | r -> r
  | exception (Failure _ | Division_by_zero) ->
      corrupt "key \"%s\" is not a rational: '%s'" key s

let vec_of key s =
  match Vec.of_string s with
  | v -> v
  | exception (Failure _ | Division_by_zero | Invalid_argument _) ->
      corrupt "key \"%s\" is not a rational vector: '%s'" key s

let frat c key = rat_of key (fstr c key)

let fopt_rat c key =
  let s = fstr c key in
  if s = "-" then None else Some (rat_of key s)

let fint64 c key =
  let s = fstr c key in
  match Int64.of_string_opt s with
  | Some v -> v
  | None -> corrupt "key \"%s\" is not a 64-bit integer: '%s'" key s

let ffloat c key =
  let s = fstr c key in
  match float_of_string_opt s with
  | Some f -> f
  | None -> corrupt "key \"%s\" is not a float: '%s'" key s

let fbool c key =
  match fint c key with
  | 0 -> false
  | 1 -> true
  | n -> corrupt "key \"%s\" must be 0 or 1, not %d" key n

let finish_line c =
  List.iter
    (fun (key, _) ->
      if not (List.mem key c.used) then corrupt "unknown key \"%s\"" key)
    c.cfields

let split_tokens s = if s = "" then [] else String.split_on_char ' ' s

let decode_placements key s =
  List.map
    (fun tok ->
      match String.index_opt tok '@' with
      | None -> corrupt "key \"%s\": malformed placement '%s'" key tok
      | Some i -> (
          let t = rat_of key (String.sub tok 0 i) in
          match
            int_of_string_opt
              (String.sub tok (i + 1) (String.length tok - i - 1))
          with
          | Some id -> (t, id)
          | None -> corrupt "key \"%s\": malformed placement '%s'" key tok))
    (split_tokens s)

let decode_active key s =
  List.map
    (fun tok ->
      match String.index_opt tok ':' with
      | None -> corrupt "key \"%s\": malformed active item '%s'" key tok
      | Some i -> (
          match int_of_string_opt (String.sub tok 0 i) with
          | Some id ->
              (id, rat_of key (String.sub tok (i + 1) (String.length tok - i - 1)))
          | None -> corrupt "key \"%s\": malformed active item '%s'" key tok))
    (split_tokens s)

let decode_vactive key s =
  List.map
    (fun tok ->
      match String.index_opt tok ':' with
      | None -> corrupt "key \"%s\": malformed active item '%s'" key tok
      | Some i -> (
          match int_of_string_opt (String.sub tok 0 i) with
          | Some id ->
              (id, vec_of key (String.sub tok (i + 1) (String.length tok - i - 1)))
          | None -> corrupt "key \"%s\": malformed active item '%s'" key tok))
    (split_tokens s)

let decode_rats key s = List.map (rat_of key) (split_tokens s)

let decode_floats key s =
  Array.of_list
    (List.map
       (fun tok ->
         match float_of_string_opt tok with
         | Some f -> f
         | None -> corrupt "key \"%s\": malformed float '%s'" key tok)
       (split_tokens s))

let victim_of key s =
  match s with
  | "any" -> Fault_plan.Any_open
  | "fullest" -> Fault_plan.Fullest
  | "emptiest" -> Fault_plan.Emptiest
  | _ ->
      if String.length s > 4 && String.sub s 0 4 = "bin:" then
        match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
        | Some id -> Fault_plan.Bin id
        | None -> corrupt "key \"%s\": unknown victim rule '%s'" key s
      else corrupt "key \"%s\": unknown victim rule '%s'" key s

(* The injector core line, held until the whole file is read so its
   declared segment/queue counts can be checked against the actual
   lines. *)
let budget_frozen_of c =
  let spec =
    match Dbp_repack.Budget.spec_of_string (fstr c "budget") with
    | Ok s -> s
    | Error msg -> corrupt "key \"budget\": %s" msg
  in
  {
    Dbp_repack.Budget.Frozen.fb_spec = spec;
    fb_tokens = frat c "tokens";
    fb_moves = fint c "moves";
    fb_moved_volume = frat c "moved_volume";
    fb_denied = fint c "denied";
  }

let rpolicy_of c =
  match Dbp_repack.Repack_policy.of_string (fstr c "rpolicy") with
  | Ok p -> p
  | Error msg -> corrupt "key \"rpolicy\": %s" msg

(* The repack core line, held like the injector's so its declared
   migration-log length can be checked against the [mv] lines. *)
type rp_line = {
  rl_budget : Dbp_repack.Budget.Frozen.t;
  rl_policy : Dbp_repack.Repack_policy.t;
  rl_events_done : int;
  rl_next_seg : int;
  rl_log : int;
  rl_bins_closed : int;
  rl_reclaimed : Rat.t;
}

type core_line = {
  cl_rng : int64 * int64;
  cl_seq : int;
  cl_next_seg : int;
  cl_events_done : int;
  cl_segments : int;
  cl_queue : int;
  cl_faults_injected : int;
  cl_faults_skipped : int;
  cl_interrupted : int;
  cl_interrupted_seconds : Rat.t;
  cl_resumed : int;
  cl_lost : int;
  cl_launch_failures : int;
  cl_retries : int;
  cl_shed : int;
  cl_latencies : Rat.t list;
}

let of_string text =
  try
    let all_lines =
      String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
    in
    let header, rest =
      match all_lines with
      | [] -> corrupt "empty snapshot"
      | h :: r -> (h, r)
    in
    let c = cursor_of_line header in
    let sch = fstr c "schema" in
    if sch <> schema && sch <> schema_v2 then
      corrupt "unsupported schema \"%s\" (expected \"%s\" or \"%s\")" sch
        schema schema_v2;
    let kind = fstr c "kind" in
    (match kind with
    | "engine" | "faults" | "repack" ->
        if sch <> schema then
          corrupt "snapshot kind \"%s\" belongs to schema \"%s\"" kind schema
    | "vector" ->
        if sch <> schema_v2 then
          corrupt "snapshot kind \"vector\" belongs to schema \"%s\"" schema_v2
    | _ -> corrupt "unknown snapshot kind \"%s\"" kind);
    let policy = fstr c "policy" in
    let seed = fint64 c "seed" in
    let events_applied = fint c "events_applied" in
    let trace_seq = fint c "trace_seq" in
    if events_applied < 0 then corrupt "negative events_applied";
    if trace_seq < 0 then corrupt "negative trace_seq";
    let capacity_str = fstr c "capacity" in
    let clock = fopt_rat c "clock" in
    let violations = fint c "violations" in
    let bin_count = fint c "bins" in
    let metered = fbool c "metered" in
    let policy_state =
      match take c "policy_state" with
      | None -> None
      | Some (T.Str s) -> Some s
      | Some (T.Int _) -> corrupt "key \"policy_state\" must be a string"
    in
    finish_line c;
    let bins = ref [] in
    let vbins = ref [] in
    let counters = ref []
    and gauges = ref []
    and rat_sums = ref []
    and hists = ref [] in
    let config = ref None and core = ref None in
    let segs = ref [] and queue = ref [] in
    let inj_repack = ref None in
    let rp_core = ref None in
    let mvs = ref [] (* reverse order *) and mv_count = ref 0 in
    let body_lines = ref 0 in
    let footer_seen = ref false in
    List.iter
      (fun line ->
        if !footer_seen then corrupt "content after the footer line";
        let c = cursor_of_line line in
        match c.cfields with
        | [] -> corrupt "empty object line"
        | (first, _) :: _ -> (
            match first with
            | "bin" ->
                incr body_lines;
                let b_id = fint c "bin" in
                let b_tag = fstr c "tag" in
                let b_capacity = frat c "cap" in
                let b_opened = frat c "opened" in
                let b_closed = fopt_rat c "closed" in
                let b_max_level = frat c "max_level" in
                let b_placements =
                  decode_placements "placements" (fstr c "placements")
                in
                let b_active = decode_active "active" (fstr c "active") in
                finish_line c;
                bins :=
                  {
                    Simulator.Online.Frozen.b_id;
                    b_tag;
                    b_capacity;
                    b_opened;
                    b_closed;
                    b_max_level;
                    b_placements;
                    b_active;
                  }
                  :: !bins
            | "vbin" ->
                incr body_lines;
                let b_id = fint c "vbin" in
                let b_tag = fstr c "tag" in
                let b_capacity = vec_of "cap" (fstr c "cap") in
                let b_opened = frat c "opened" in
                let b_closed = fopt_rat c "closed" in
                let b_max_level = vec_of "max_level" (fstr c "max_level") in
                let b_placements =
                  decode_placements "placements" (fstr c "placements")
                in
                let b_active = decode_vactive "active" (fstr c "active") in
                finish_line c;
                vbins :=
                  {
                    Vec_simulator.Online.Frozen.b_id;
                    b_tag;
                    b_capacity;
                    b_opened;
                    b_closed;
                    b_max_level;
                    b_placements;
                    b_active;
                  }
                  :: !vbins
            | "metric" ->
                incr body_lines;
                (match fstr c "metric" with
                | "counter" ->
                    let name = fstr c "name" in
                    counters := (name, fint c "value") :: !counters
                | "gauge" ->
                    let name = fstr c "name" in
                    gauges := (name, fint c "value") :: !gauges
                | "rat_sum" ->
                    let name = fstr c "name" in
                    rat_sums := (name, frat c "value") :: !rat_sums
                | "hist" ->
                    let name = fstr c "name" in
                    hists :=
                      (name, decode_floats "values" (fstr c "values"))
                      :: !hists
                | other -> corrupt "unknown metric class \"%s\"" other);
                finish_line c
            | "inj" ->
                incr body_lines;
                (match fstr c "inj" with
                | "config" ->
                    if Option.is_some !config then
                      corrupt "duplicate injector config line";
                    let cseed = fint64 c "cseed" in
                    let launch_failure_prob = ffloat c "launch_failure_prob" in
                    let base_backoff = frat c "base_backoff" in
                    let backoff_cap = frat c "backoff_cap" in
                    let max_retries = fint c "max_retries" in
                    let restart_delay = frat c "restart_delay" in
                    let opt_count key =
                      match fint c key with
                      | -1 -> None
                      | n when n >= 0 -> Some n
                      | n -> corrupt "key \"%s\": bad bound %d" key n
                    in
                    let max_fleet = opt_count "max_fleet" in
                    let max_pending = opt_count "max_pending" in
                    config :=
                      Some
                        {
                          Injector.seed = cseed;
                          launch_failure_prob;
                          base_backoff;
                          backoff_cap;
                          max_retries;
                          restart_delay;
                          max_fleet;
                          max_pending;
                        }
                | "core" ->
                    if Option.is_some !core then
                      corrupt "duplicate injector core line";
                    core :=
                      Some
                        {
                          cl_rng = (fint64 c "rng_state", fint64 c "rng_inc");
                          cl_seq = fint c "seq";
                          cl_next_seg = fint c "next_seg";
                          cl_events_done = fint c "events_done";
                          cl_segments = fint c "segments";
                          cl_queue = fint c "queue";
                          cl_faults_injected = fint c "faults_injected";
                          cl_faults_skipped = fint c "faults_skipped";
                          cl_interrupted = fint c "interrupted";
                          cl_interrupted_seconds =
                            frat c "interrupted_seconds";
                          cl_resumed = fint c "resumed";
                          cl_lost = fint c "lost";
                          cl_launch_failures = fint c "launch_failures";
                          cl_retries = fint c "retries";
                          cl_shed = fint c "shed";
                          cl_latencies = decode_rats "latencies" (fstr c "latencies");
                        }
                | "repack" ->
                    if Option.is_some !inj_repack then
                      corrupt "duplicate injector repack line";
                    let budget = budget_frozen_of c in
                    let rp = rpolicy_of c in
                    inj_repack := Some (budget, rp)
                | other -> corrupt "unknown injector line \"%s\"" other);
                finish_line c
            | "rp" ->
                incr body_lines;
                (match fstr c "rp" with
                | "core" ->
                    if Option.is_some !rp_core then
                      corrupt "duplicate repack core line";
                    rp_core :=
                      Some
                        {
                          rl_budget = budget_frozen_of c;
                          rl_policy = rpolicy_of c;
                          rl_events_done = fint c "events_done";
                          rl_next_seg = fint c "next_seg";
                          rl_log = fint c "log";
                          rl_bins_closed = fint c "bins_closed";
                          rl_reclaimed = frat c "reclaimed";
                        }
                | other -> corrupt "unknown repack line \"%s\"" other);
                finish_line c
            | "mv" ->
                incr body_lines;
                let i = fint c "mv" in
                if i <> !mv_count then
                  corrupt "migration log out of order: entry %d at position %d"
                    i !mv_count;
                incr mv_count;
                let old_id = fint c "old" in
                let new_id = fint c "new" in
                let t = frat c "at" in
                finish_line c;
                mvs := (old_id, new_id, t) :: !mvs
            | "seg" ->
                incr body_lines;
                let fs_id = fint c "seg" in
                let fs_orig = fint c "orig" in
                let fs_size = frat c "size" in
                let fs_start = frat c "start" in
                let fs_deadline = frat c "deadline" in
                let fs_stop = frat c "stop" in
                let fs_active = fbool c "live" in
                finish_line c;
                segs :=
                  {
                    Injector.Frozen.fs_id;
                    fs_orig;
                    fs_size;
                    fs_start;
                    fs_deadline;
                    fs_stop;
                    fs_active;
                  }
                  :: !segs
            | "q" ->
                incr body_lines;
                let t = frat c "t" in
                let rank = fint c "rank" in
                let qseq = fint c "qseq" in
                let check_rank expected =
                  if rank <> expected then
                    corrupt "queue rank %d does not match its event kind" rank
                in
                let ev =
                  match fstr c "q" with
                  | "depart" ->
                      check_rank 0;
                      Injector.Frozen.F_depart (fint c "seg")
                  | "fault" ->
                      check_rank 1;
                      let victim = victim_of "victim" (fstr c "victim") in
                      let warning = fopt_rat c "warning" in
                      let kind =
                        match (fstr c "fkind", warning) with
                        | "crash", None -> Fault_plan.Crash
                        | "crash", Some _ ->
                            corrupt "crash fault carries a warning"
                        | "preempt", Some warning ->
                            Fault_plan.Preemption { warning }
                        | "preempt", None ->
                            corrupt "preemption fault without a warning"
                        | other, _ -> corrupt "unknown fault kind \"%s\"" other
                      in
                      Injector.Frozen.F_fault
                        { Fault_plan.at = t; victim; kind }
                  | "dispatch" ->
                      check_rank 2;
                      Injector.Frozen.F_dispatch
                        {
                          Injector.Frozen.fa_orig = fint c "orig";
                          fa_size = frat c "size";
                          fa_priority = fint c "priority";
                          fa_deadline = frat c "deadline";
                          fa_attempt = fint c "attempt";
                          fa_evicted_at = fopt_rat c "evicted_at";
                          fa_key = fint c "key";
                          fa_cancelled = fbool c "cancelled";
                          fa_pending = fbool c "pending";
                        }
                  | other -> corrupt "unknown queue event \"%s\"" other
                in
                finish_line c;
                queue := ((t, rank, qseq), ev) :: !queue
            | "end" ->
                let fsch = fstr c "end" in
                if fsch <> sch then
                  corrupt "footer schema \"%s\" does not match" fsch;
                let declared = fint c "lines" in
                let actual = !body_lines + 1 in
                if declared <> actual then
                  corrupt "truncated snapshot: footer declares %d lines, found %d"
                    declared actual;
                finish_line c;
                footer_seen := true
            | other -> corrupt "unknown line type \"%s\"" other))
      rest;
    if not !footer_seen then corrupt "missing footer line (truncated snapshot?)";
    let bins = List.rev !bins in
    let vbins = List.rev !vbins in
    (if kind = "vector" then (
       if bins <> [] then corrupt "scalar bin lines in a vector snapshot";
       if List.length vbins <> bin_count then
         corrupt "header declares %d bins, found %d" bin_count
           (List.length vbins))
     else (
       if vbins <> [] then corrupt "vector bin lines in a scalar snapshot";
       if List.length bins <> bin_count then
         corrupt "header declares %d bins, found %d" bin_count
           (List.length bins)));
    let have_metric_lines =
      !counters <> [] || !gauges <> [] || !rat_sums <> [] || !hists <> []
    in
    if (not metered) && have_metric_lines then
      corrupt "metric lines in an unmetered snapshot";
    let metrics =
      if metered then
        Some
          {
            Dbp_obs.Metrics.d_counters = List.rev !counters;
            d_gauges = List.rev !gauges;
            d_rat_sums = List.rev !rat_sums;
            d_hists = List.rev !hists;
          }
      else None
    in
    let engine () =
      {
        Simulator.Online.Frozen.s_capacity = rat_of "capacity" capacity_str;
        s_clock = clock;
        s_violations = violations;
        s_bins = bins;
        s_policy_state = policy_state;
      }
    in
    let no_fault_lines what =
      if
        Option.is_some !config || Option.is_some !core || !segs <> []
        || !queue <> []
        || Option.is_some !inj_repack
      then corrupt "fault-injector lines in %s snapshot" what
    in
    let no_repack_lines what =
      if Option.is_some !rp_core || !mvs <> [] then
        corrupt "repack lines in %s snapshot" what
    in
    let payload =
      match kind with
      | "vector" ->
          no_fault_lines "a vector";
          no_repack_lines "a vector";
          Vector
            {
              Vec_simulator.Online.Frozen.s_capacity =
                vec_of "capacity" capacity_str;
              s_clock = clock;
              s_violations = violations;
              s_bins = vbins;
              s_policy_state = policy_state;
            }
      | "engine" ->
          if
            Option.is_some !config || Option.is_some !core || !segs <> []
            || !queue <> []
            || Option.is_some !inj_repack
          then corrupt "fault-injector lines in an engine snapshot";
          if Option.is_some !rp_core || !mvs <> [] then
            corrupt "repack lines in an engine snapshot";
          Engine (engine ())
      | "repack" ->
          if
            Option.is_some !config || Option.is_some !core || !segs <> []
            || !queue <> []
            || Option.is_some !inj_repack
          then corrupt "fault-injector lines in a repack snapshot";
          let rl =
            match !rp_core with
            | Some rl -> rl
            | None -> corrupt "missing the repack core line"
          in
          let log = List.rev !mvs in
          if List.length log <> rl.rl_log then
            corrupt "repack core line declares %d log entries, found %d"
              rl.rl_log (List.length log);
          Repack
            {
              Dbp_repack.Runner.Frozen.r_engine = engine ();
              r_budget = rl.rl_budget;
              r_repack = rl.rl_policy;
              r_events_done = rl.rl_events_done;
              r_next_seg = rl.rl_next_seg;
              r_log = log;
              r_bins_closed = rl.rl_bins_closed;
              r_reclaimed = rl.rl_reclaimed;
            }
      | _ ->
          if Option.is_some !rp_core || !mvs <> [] then
            corrupt "repack lines in a faults snapshot";
          let config =
            match !config with
            | Some c -> c
            | None -> corrupt "missing the injector config line"
          in
          let core =
            match !core with
            | Some c -> c
            | None -> corrupt "missing the injector core line"
          in
          let segments = List.rev !segs in
          let queue = List.rev !queue in
          if List.length segments <> core.cl_segments then
            corrupt "core line declares %d segments, found %d" core.cl_segments
              (List.length segments);
          if List.length queue <> core.cl_queue then
            corrupt "core line declares %d queue events, found %d"
              core.cl_queue (List.length queue);
          Faults
            {
              Injector.Frozen.f_engine = engine ();
              f_config = config;
              f_rng = core.cl_rng;
              f_seq = core.cl_seq;
              f_next_seg = core.cl_next_seg;
              f_events_done = core.cl_events_done;
              f_segments = segments;
              f_queue = queue;
              f_faults_injected = core.cl_faults_injected;
              f_faults_skipped = core.cl_faults_skipped;
              f_interrupted = core.cl_interrupted;
              f_interrupted_seconds = core.cl_interrupted_seconds;
              f_resumed = core.cl_resumed;
              f_lost = core.cl_lost;
              f_launch_failures = core.cl_launch_failures;
              f_retries = core.cl_retries;
              f_shed = core.cl_shed;
              f_recovery_latencies = core.cl_latencies;
              f_repack = !inj_repack;
            }
    in
    Ok { meta = { policy; seed; events_applied; trace_seq }; metrics; payload }
  with Corrupt msg -> Error msg
