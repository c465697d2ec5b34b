(* The repository benchmark: one process, one pool domain, cold passes over
   one workload's operations.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints diagnostics to stderr, then one [info] JSON line and, as the
   last line of stdout, the result object
   [{"correct", "attempted", "failed", "metrics"}]. With [--trace 0] the
   metrics are the end-to-end ones; with [--trace 1] they are the
   per-layer ones of a traced run (README.md has the names and what each
   should move). *)

module Pool = Vliw_util.Pool
module Memo = Vliw_harness.Memo
module Experiments = Vliw_harness.Experiments

(* Deadlines are wall time; every measurement is CPU time of the process
   (see spans.ml), so that the host descheduling it shows in neither. *)
let wall = Unix.gettimeofday
let cpu = Spans.clock
let workload = ref ""
let seed = ref 0
let seconds = ref 10
let trace = ref 0
let setup_only = ref false

let args =
  [
    ( "--workload",
      Arg.Set_string workload,
      "NAME  " ^ String.concat ", " Ops.names );
    ("--seed", Arg.Set_int seed, "N  input seed (the operations' order)");
    ("--seconds", Arg.Set_int seconds, "S  how long to measure");
    ( "--trace",
      Arg.Set_int trace,
      "0|1  end-to-end metrics, or a traced run's per-layer metrics" );
    ( "--setup-only",
      Arg.Set setup_only,
      " make the inputs and exit (the set-up time probe)" );
  ]

(* ---- statistics ---- *)

(* Linear interpolation between closest ranks. *)
let percentile p samples =
  let a = Array.of_list (List.sort compare samples) in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = percentile 0.5
let ratio a b = if b = 0. then 0. else a /. b

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match String.split_on_char ':' (input_line ic) with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf v " %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
      in
      find ())

(* Make the peak the current RSS, so [peak_rss_mb] reads one pass's peak. *)
let reset_peak_rss () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")

(* ---- checks ---- *)

let failures = ref 0
let attempted = ref 0
let problems = ref 0

let problem fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      incr problems)
    fmt

(* The outputs of the run's first untraced pass, indexed by op id: every
   later output of the op, traced or not, must equal it. *)
let reference : (Ops.obs, string) result array option ref = ref None

(* Count and check one pass's outputs; returns the pass's counts. *)
let judge ~what ops results =
  Array.iter
    (fun (op : Ops.t) ->
      incr attempted;
      let first = Option.map (fun a -> a.(op.Ops.id)) !reference in
      match (results.(op.Ops.id), first) with
      | Error e, _ ->
        incr failures;
        problem "%s: op %d (%s) failed: %s" what op.Ops.id (Ops.name op) e
      | Ok o, Some (Ok f) when not (Ops.same o f) ->
        incr failures;
        problem "%s: op %d (%s) differs from the first pass" what op.Ops.id
          (Ops.name op)
      | Ok _, _ -> ())
    ops;
  if Option.is_none !reference then reference := Some results;
  Array.fold_left
    (fun c -> function Ok o -> Ops.add_obs c o | Error _ -> c)
    Ops.zero results

let first_counts = ref None

let same_counts ~what (c : Ops.counts) =
  match !first_counts with
  | None -> first_counts := Some c
  | Some f ->
    if f <> c then
      problem "%s: deterministic counts differ from the first pass" what

(* ---- passes ---- *)

(* Every pass starts cold, as every user invocation does, and from a
   compacted heap, as a fresh process does. *)
let cold () =
  Experiments.clear_cache ();
  Staged.reset ();
  Gc.compact ()

type pass = {
  cpu_s : float;  (** CPU seconds of the pass's ops *)
  wall_s : float;
  norm_s : float;  (** nominal seconds of the pass's ops (calib.ml) *)
  latencies : float array;  (** nominal seconds, indexed by op id *)
  rss_mb : float;  (** peak RSS during the pass *)
  scales : float array;  (** [Calib.scale] at each op *)
  ok : int;  (** ops that passed their checks *)
  hit_rate : float;  (** [Memo.hit_rate] at the end of the pass *)
}

let untraced_pass ~what ops =
  cold ();
  reset_peak_rss ();
  let n = Array.length ops in
  let results = Array.make n (Error "not run") in
  (* probe sample [j] runs just before op [j], sample [n] after the last *)
  let probes = Array.make (n + 1) 0. in
  let raw = Array.make n 0. in
  let w0 = wall () in
  Array.iteri
    (fun j (op : Ops.t) ->
      probes.(j) <- Calib.sample ();
      let t = cpu () in
      let r = Ops.run op in
      raw.(j) <- cpu () -. t;
      results.(op.Ops.id) <- r)
    ops;
  probes.(n) <- Calib.sample ();
  let wall_s = wall () -. w0 in
  let rss_mb = peak_rss_mb () in
  let scales = Array.init n (Calib.scale probes) in
  let norm = Array.make n 0. in
  Array.iteri
    (fun j (op : Ops.t) -> norm.(op.Ops.id) <- raw.(j) *. scales.(j))
    ops;
  let sum = Array.fold_left ( +. ) 0. in
  let hit_rate = Memo.hit_rate () in
  let failed = !failures in
  same_counts ~what (judge ~what ops results);
  let ok = Array.length ops - (!failures - failed) in
  {
    cpu_s = sum raw;
    wall_s;
    norm_s = sum norm;
    latencies = norm;
    rss_mb;
    scales;
    ok;
    hit_rate;
  }

type traced = {
  t_cpu : float;  (** CPU seconds of the pass *)
  t_self : (string, float) Hashtbl.t;  (** self time by span name *)
  t_counters : Staged.counters;
}

let traced_pass ~what ops =
  cold ();
  let results = Array.make (Array.length ops) (Error "not run") in
  let first = !Spans.count in
  let t0 = cpu () in
  Spans.span "pass" (fun () ->
      Array.iter (fun (op : Ops.t) -> results.(op.Ops.id) <- Staged.run op) ops);
  let t_cpu = cpu () -. t0 in
  ignore (judge ~what ops results);
  {
    t_cpu;
    t_self = Spans.self_by_name ~first ~last:!Spans.count;
    t_counters = Staged.snapshot ();
  }

let is_litmus ops =
  Array.exists
    (fun (op : Ops.t) ->
      match op.Ops.kind with Ops.Litmus _ -> true | Ops.Loop _ -> false)
    ops

(* litmus: the nominal cycles of every schedule ([Check.run_case] reports
   none), measured after the passes; loop workloads: the cycles of the
   passes' own simulations *)
let sim_cycles ops =
  if is_litmus ops then
    Array.fold_left
      (fun acc (op : Ops.t) ->
        match op.Ops.kind with
        | Ops.Litmus { case; _ } -> acc + Ops.nominal_cycles case
        | Ops.Loop _ -> acc)
      0 ops
  else (Option.get !first_counts).Ops.sim_cycles

(* Another pass (or pair of passes) as long as the longest so far, [last]
   wall seconds, still ends within the measuring time. *)
let fits ~t0 ~last = wall () -. t0 +. last <= float_of_int !seconds

(* ---- output ---- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~info ms =
  let correct = !problems = 0 && !failures = 0 in
  Printf.printf "{\"info\": {%s}}\n" (String.concat ", " info);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct !attempted !failures
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v)
              unit)
          ms))

let base_info ops =
  [
    Printf.sprintf "\"workload\": %S" !workload;
    Printf.sprintf "\"seed\": %d" !seed;
    Printf.sprintf "\"trace\": %d" !trace;
    Printf.sprintf "\"host_cores\": %d" (Domain.recommended_domain_count ());
    Printf.sprintf "\"ocaml_version\": %S" Sys.ocaml_version;
    Printf.sprintf "\"pool_width\": %d" (Pool.jobs ());
    Printf.sprintf "\"ops_per_pass\": %d" (Array.length ops);
  ]

let floats xs = "[" ^ String.concat ", " (List.map json_num xs) ^ "]"

(* ---- end-to-end run ---- *)

(* Set-up time: the CPU seconds of a fresh process of this program, from
   exec until its inputs are ready (runtime start, every library's module
   initialisers, making the inputs), then exit. [end_to_end] scales them
   to nominal seconds as it scales the ops. *)
let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let setup_time () =
  let exe = Sys.executable_name in
  let t = children_cpu () in
  let pid =
    Unix.create_process exe
      [| exe; "--workload"; !workload; "--seed"; string_of_int !seed; "--setup-only" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> children_cpu () -. t
  | _ -> failwith "set-up probe failed"

(* p90 needs ten samples beyond it *)
let min_samples = 100

let setup_probes = 31

let end_to_end groups =
  let ops = Ops.all groups in
  let cal = Array.make (setup_probes + 1) 0. in
  let raw =
    Array.init setup_probes (fun i ->
        cal.(i) <- Calib.sample ();
        setup_time ())
  in
  cal.(setup_probes) <- Calib.sample ();
  let setups = List.init setup_probes (fun i -> raw.(i) *. Calib.scale cal i) in
  let n = Array.length ops in
  let min_passes = (min_samples + n - 1) / n in
  let t0 = wall () in
  let rec loop acc k last =
    if k >= min_passes && not (fits ~t0 ~last) then List.rev acc
    else
      let p =
        untraced_pass
          ~what:(Printf.sprintf "pass %d" (k + 1))
          (Ops.pass_order ~seed:!seed ~pass:k groups)
      in
      loop (p :: acc) (k + 1) (Float.max last p.wall_s)
  in
  let passes = loop [] 0 0. in
  let cycles = sim_cycles ops in
  (* an op's latency is its median over the passes; the percentiles are
     over the ops' latencies, so the op at a percentile stays the same op
     however many passes the run makes *)
  let lat =
    List.init n (fun j ->
        1e3 *. median (List.map (fun p -> p.latencies.(j)) passes))
  in
  let ok = median (List.map (fun p -> float_of_int p.ok) passes) in
  let c = { (Option.get !first_counts) with Ops.sim_cycles = cycles } in
  let info =
    base_info ops
    @ [
        Printf.sprintf "\"setup_samples_s\": %s" (floats setups);
        Printf.sprintf "\"passes\": %d" (List.length passes);
        Printf.sprintf "\"op_samples\": %d" (n * List.length passes);
        Printf.sprintf "\"pass_norm_s\": %s"
          (floats (List.map (fun p -> p.norm_s) passes));
        Printf.sprintf "\"pass_cpu_s\": %s"
          (floats (List.map (fun p -> p.cpu_s) passes));
        Printf.sprintf "\"pass_scale\": %s"
          (floats (List.map (fun p -> median (Array.to_list p.scales)) passes));
        Printf.sprintf "\"pass_wall_s\": %s"
          (floats (List.map (fun p -> p.wall_s) passes));
        Printf.sprintf "\"pass_rss_mb\": %s"
          (floats (List.map (fun p -> p.rss_mb) passes));
        Printf.sprintf "\"failed_frac\": %s"
          (json_num (ratio (float_of_int !failures) (float_of_int !attempted)));
        Printf.sprintf
          "\"counts\": {\"sim_cycles\": %d, \"sched.ii_sum\": %d, \
           \"lower.nodes\": %d, \"core.graph_nodes\": %d, \"check.states\": %d, \
           \"check.leaves\": %d}"
          c.Ops.sim_cycles c.Ops.ii_sum c.Ops.lower_nodes c.Ops.graph_nodes
          c.Ops.states c.Ops.leaves;
      ]
  in
  print_result ~info
    [
      ("setup_s", median setups, "s");
      ("ops_per_s", ok /. (1e-3 *. List.fold_left ( +. ) 0. lat), "1/s");
      ("op_p50_ms", percentile 0.5 lat, "ms");
      ("op_p90_ms", percentile 0.9 lat, "ms");
      ("sim_cycles", float_of_int cycles, "cycles");
      ("peak_rss_mb", median (List.map (fun p -> p.rss_mb) passes), "MB");
    ]

(* ---- traced run ---- *)

let span_file () =
  let dir = "_perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" !workload !seed)

let per_layer groups =
  let ops = Ops.all groups in
  let t0 = wall () in
  let rec loop us ts k last =
    if us <> [] && not (fits ~t0 ~last) then (List.rev us, List.rev ts)
    else
      let t1 = wall () in
      (* both passes of a pair run the pair's order *)
      let order = Ops.pass_order ~seed:!seed ~pass:k groups in
      let untraced () =
        untraced_pass ~what:(Printf.sprintf "pass %d" k) order
      in
      let traced () =
        traced_pass ~what:(Printf.sprintf "traced pass %d" k) order
      in
      (* untraced and traced passes alternate in ABBA order, so neither
         side always runs first and drift of the host hits both *)
      let u, t =
        if k mod 2 = 1 then
          let u = untraced () in
          (u, traced ())
        else
          let t = traced () in
          (untraced (), t)
      in
      loop (u :: us) (t :: ts) (k + 1) (Float.max last (wall () -. t1))
  in
  let untraced, traced = loop [] [] 1 0. in
  let tc = (List.hd traced).t_counters in
  List.iteri
    (fun k t ->
      if t.t_counters <> tc then
        problem "traced pass %d: counters differ from the first traced pass"
          (k + 1))
    traced;
  if is_litmus ops && tc.Staged.sim_cycles <> sim_cycles ops then
    problem "traced nominal cycles differ from the untraced measurement";
  let file = span_file () in
  Spans.write file;
  (* self seconds of one span name per traced pass, median over them *)
  let self name =
    median
      (List.map
         (fun t -> Option.value (Hashtbl.find_opt t.t_self name) ~default:0.)
         traced)
  in
  let cpu_t = median (List.map (fun t -> t.t_cpu) traced) in
  let cpu_u = median (List.map (fun p -> p.cpu_s) untraced) in
  let names =
    List.sort_uniq compare
      (List.concat_map
         (fun t -> Hashtbl.fold (fun k _ acc -> k :: acc) t.t_self [])
         traced)
  in
  prerr_endline "perfbench: traced self time per pass (median over passes)";
  List.iter
    (fun n ->
      Printf.eprintf "  %-20s %9.4f s  %5.1f%%\n" n (self n)
        (100. *. ratio (self n) cpu_t))
    names;
  let info =
    base_info ops
    @ [
        Printf.sprintf "\"untraced_passes\": %d" (List.length untraced);
        Printf.sprintf "\"traced_passes\": %d" (List.length traced);
        Printf.sprintf "\"untraced_cpu_s\": %s" (json_num cpu_u);
        Printf.sprintf "\"traced_cpu_s\": %s" (json_num cpu_t);
        Printf.sprintf "\"self_s\": {%s}"
          (String.concat ", "
             (List.map (fun n -> Printf.sprintf "%S: %s" n (json_num (self n))) names));
        Printf.sprintf "\"spans_file\": %S" file;
      ]
  in
  let f = float_of_int in
  let explore = self "check.explore" and sim = self "sim.run" in
  print_result ~info
    [
      ("sched.driver_s", self "sched.driver", "s");
      ("sched.hybrid_s", self "sched.hybrid", "s");
      ("sched.ii_sum", f tc.Staged.ii_sum, "count");
      ("sched.mii_sum", f tc.Staged.mii_sum, "count");
      ("sched.ii_over_mii", ratio (f tc.Staged.ii_sum) (f tc.Staged.mii_sum), "ratio");
      ("core.transform_s", self "core.transform", "s");
      ("core.graph_nodes", f tc.Staged.graph_nodes, "count");
      ("ir.parse_s", self "ir.parse", "s");
      ("ir.layout_s", self "ir.layout", "s");
      ("ir.interp_s", self "ir.interp", "s");
      ("profile.run_s", self "profile.run", "s");
      ("lower.lower_s", self "lower.lower", "s");
      ("lower.nodes", f tc.Staged.lower_nodes, "count");
      ( "harness.memo_hit_rate",
        median (List.map (fun p -> p.hit_rate) untraced),
        "frac" );
      ("verify.check_s", self "verify.check", "s");
      ("verify.gate_s", self "verify.gate", "s");
      ("verify.obligations", f tc.Staged.obligations, "count");
      ( "verify.certified_frac",
        ratio (f tc.Staged.certified) (f tc.Staged.checked),
        "frac" );
      ("check.explore_s", explore, "s");
      ("check.states", f tc.Staged.states, "count");
      ("check.leaves", f tc.Staged.leaves, "count");
      ( "check.pruned_ratio",
        ratio (f tc.Staged.pruned) (f (tc.Staged.states + tc.Staged.pruned)),
        "frac" );
      ("check.us_per_state", ratio (explore *. 1e6) (f tc.Staged.states), "us");
      ("fuzz.compile_s", self "fuzz.compile", "s");
      ("fuzz.oracle_s", self "fuzz.oracle", "s");
      ("sim.run_s", sim, "s");
      ("sim.cycles", f tc.Staged.sim_cycles, "cycles");
      ( "sim.stall_frac",
        ratio (f tc.Staged.sim_stall) (f tc.Staged.sim_cycles),
        "frac" );
      ("sim.ns_per_cycle", ratio (sim *. 1e9) (f tc.Staged.sim_cycles), "ns");
      ("trace.audit_s", self "trace.audit", "s");
      ("trace.events", f tc.Staged.events, "count");
      ("trace.glue_frac", ratio (self "op" +. self "pass") cpu_t, "frac");
      ("trace_overhead_frac", ratio cpu_t cpu_u -. 1., "frac");
    ]

let () =
  Arg.parse args
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe OPTIONS";
  if not (List.mem !workload Ops.names) then begin
    prerr_endline
      ("perfbench: --workload must be one of " ^ String.concat ", " Ops.names);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  Pool.set_jobs 1;
  let groups = Ops.setup ~workload:!workload in
  if !setup_only then exit 0;
  if !trace = 0 then end_to_end groups else per_layer groups
