(* The workloads: what one operation is, how a run's inputs are made from
   its seed, and how an operation's output is checked. Why each workload
   exists is in README.md. *)

module M = Vliw_arch.Machine
module G = Vliw_ddg.Graph
module S = Vliw_sched.Schedule
module W = Vliw_workloads.Workloads
module R = Vliw_harness.Runner
module V = Vliw_verify.Verify
module Sim = Vliw_sim.Sim
module Check = Vliw_check.Check
module Diff = Vliw_fuzz.Diff
module Gen = Vliw_fuzz.Gen

type loop_op = {
  bench : W.benchmark;
  loop : W.loop;
  machine : M.t;  (** the benchmark's interleave already applied *)
  technique : R.technique;
  heuristic : S.heuristic;
}

type kind =
  | Loop of loop_op  (** one [Runner.run_loop] *)
  | Litmus of { file : string; case : Gen.case }  (** one [Check.run_case] *)

type t = { id : int;  (** position in the workload's own order *) kind : kind }

let names = [ "paper4"; "scale16"; "litmus" ]

(* One group per loop and machine: the ops that share the loop's memoised
   front end ([Memo.stages]), every scheme in [schemes]' order. *)
let loop_ops ~benches ~machines ~schemes =
  List.concat_map
    (fun base ->
      List.concat_map
        (fun bench ->
          let machine = R.machine_for base bench in
          (match M.validate machine with
          | Ok () -> ()
          | Error e -> failwith ("invalid machine: " ^ e));
          List.map
            (fun loop ->
              List.map
                (fun (technique, heuristic) ->
                  Loop { bench; loop; machine; technique; heuristic })
                schemes)
            bench.W.b_loops)
        benches)
    machines

let litmus_dir = Filename.concat "test" "litmus"

let litmus_ops () =
  if not (Sys.file_exists litmus_dir) then
    failwith (litmus_dir ^ " not found (run from the repository root)");
  Sys.readdir litmus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".lk")
  |> List.sort compare
  |> List.map (fun file ->
         [ Litmus { file; case = Gen.load (Filename.concat litmus_dir file) } ])

(* Experiments.scale_machine: ABs on, so the directory tracks sharers *)
let scale_machine n icn =
  M.with_attraction
    (M.with_interconnect (M.scale_clusters M.table2 n) icn)
    (Some M.default_attraction)

let kinds = function
  | "paper4" ->
    loop_ops ~benches:W.figures ~machines:[ M.table2 ]
      ~schemes:
        (List.concat_map
           (fun t -> [ (t, S.Pref_clus); (t, S.Min_coms) ])
           [ R.Free; R.Mdc; R.Ddgt; R.Hybrid ])
  | "scale16" ->
    loop_ops
      ~benches:(List.map W.find [ "epicdec"; "g721dec"; "rasta" ])
      ~machines:[ scale_machine 16 M.Shared_bus; scale_machine 16 M.Directory ]
      ~schemes:(List.map (fun t -> (t, S.Pref_clus)) [ R.Mdc; R.Ddgt; R.Hybrid ])
  | "litmus" -> litmus_ops ()
  | w -> invalid_arg ("unknown workload " ^ w)

(* The workload's operations in groups, numbered in the workload's own
   order. *)
let setup ~workload =
  let next = ref 0 in
  Array.of_list
    (List.map
       (List.map (fun kind ->
            let id = !next in
            incr next;
            { id; kind }))
       (kinds workload))

let all groups = Array.of_list (List.concat (Array.to_list groups))

(* The operations of pass [pass] of a run: the groups in an order drawn from
   [seed] and [pass], the order inside each group fixed. The order changes
   no result, since every pass starts cold and runs each operation once. It
   changes what an op costs only through the runtime: the collector's debt
   and the caches an op inherits from the ops before it. Each pass draws
   its own order, so an op's median over the passes is taken over several
   such contexts, not over one that the seed fixes for the whole run. *)
let pass_order ~seed ~pass groups =
  let g = Array.copy groups in
  let rng = Random.State.make [| seed; pass |] in
  for i = Array.length g - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = g.(i) in
    g.(i) <- g.(j);
    g.(j) <- t
  done;
  all g

(* ---- what an operation produced, for the checks ---- *)

type loop_obs = {
  digest : string;  (** [Serve.Engine.schedule_digest] *)
  stats : Sim.stats;
  ii : int;
  nodes : int;  (** lowered (pre-transform) DDG size *)
  graph_nodes : int;  (** scheduled (post-transform) DDG size *)
}

type obs =
  | Loop_obs of loop_obs
  | Litmus_obs of (Diff.technique * (bool * Check.outcome) option) list
      (** per technique: certificate and exploration; [None] = unschedulable *)

let same a b =
  match (a, b) with
  | Loop_obs a, Loop_obs b ->
    a.digest = b.digest && Check.stats_equal a.stats b.stats && a.ii = b.ii
    && a.nodes = b.nodes && a.graph_nodes = b.graph_nodes
  | Litmus_obs a, Litmus_obs b -> a = b
  | _ -> false

let must_certify = function
  | R.Mdc | R.Ddgt -> true
  | R.Free | R.Hybrid -> false

(* The output checks of a loop op; [verified] is the op's certificate. *)
let check_loop (o : loop_op) ~verified (stats : Sim.stats) =
  if must_certify o.technique && not verified then Error "schedule not certified"
  else if verified && stats.Sim.violations > 0 then
    Error
      (Printf.sprintf "certified schedule ran with %d violations"
         stats.Sim.violations)
  else Ok ()

let loop_obs (o : loop_op) (lr : R.loop_run) =
  let obs =
    {
      digest = Vliw_serve.Engine.schedule_digest lr.R.lr_schedule;
      stats = lr.R.lr_stats;
      ii = lr.R.lr_schedule.S.ii;
      nodes = lr.R.lr_nodes;
      graph_nodes = G.node_count lr.R.lr_graph;
    }
  in
  Result.map
    (fun () -> Loop_obs obs)
    (check_loop o ~verified:lr.R.lr_verify.V.r_verified lr.R.lr_stats)

let litmus_obs (r : Check.case_outcome) =
  let techs =
    List.map
      (fun (c : Check.checked) ->
        ( c.Check.t_technique,
          match c.Check.t_status with
          | Ok (report, o) -> Some (report.V.r_verified, o)
          | Error _ -> None ))
      r.Check.co_techniques
  in
  match r.Check.co_failures with
  | (kind, detail) :: _ -> Error (kind ^ ": " ^ detail)
  | [] -> (
    match List.find_opt (fun (_, t) -> t = None) techs with
    | Some (tech, _) -> Error (Diff.technique_name tech ^ " does not schedule")
    | None ->
      let exhaustive = function
        | _, Some (_, o) -> o.Check.k_exhaustive
        | _, None -> false
      in
      if List.for_all exhaustive techs then Ok (Litmus_obs techs)
      else Error "exploration not exhaustive")

(* One operation through the libraries' own entry points, as users run
   it. [Error] is a failed operation; raised exceptions count as one. *)
let run (op : t) =
  match op.kind with
  | Loop o -> (
    match
      R.run_loop ~machine:o.machine o.technique o.heuristic ~bench:o.bench o.loop
    with
    | lr -> loop_obs o lr
    | exception e -> Error (Printexc.to_string e))
  | Litmus { case; _ } -> (
    match Check.run_case case with
    | r -> litmus_obs r
    | exception e -> Error (Printexc.to_string e))

let name (op : t) =
  match op.kind with
  | Loop o ->
    Printf.sprintf "%s/%s %s %s %s" o.bench.W.b_name o.loop.W.l_name
      (R.technique_name o.technique) (S.heuristic_name o.heuristic)
      (M.interconnect_name o.machine.M.interconnect)
  | Litmus { file; _ } -> file

(* ---- the counts every pass must repeat exactly ---- *)

type counts = {
  sim_cycles : int;
  ii_sum : int;
  lower_nodes : int;
  graph_nodes : int;
  states : int;
  leaves : int;
}

let zero =
  {
    sim_cycles = 0;
    ii_sum = 0;
    lower_nodes = 0;
    graph_nodes = 0;
    states = 0;
    leaves = 0;
  }

let add_obs c = function
  | Loop_obs o ->
    {
      c with
      sim_cycles = c.sim_cycles + o.stats.Sim.total_cycles;
      ii_sum = c.ii_sum + o.ii;
      lower_nodes = c.lower_nodes + o.nodes;
      graph_nodes = c.graph_nodes + o.graph_nodes;
    }
  | Litmus_obs techs ->
    List.fold_left
      (fun c -> function
        | _, Some (_, (o : Check.outcome)) ->
          {
            c with
            states = c.states + o.Check.k_states;
            leaves = c.leaves + o.Check.k_leaves;
          }
        | _, None -> c)
      c techs

(* A litmus op's schedules, recompiled exactly as [Check.run_case]
   compiles them, each run once at nominal latencies (the all-zero draw
   script). [Check.run_case] reports no cycle count, so the litmus
   workload's [sim_cycles] is measured here, outside the timed passes. *)
let nominal_cycles (case : Gen.case) =
  List.fold_left
    (fun acc tech ->
      match Diff.compile case tech with
      | Error _ -> acc (* the op already failed for it *)
      | Ok a ->
        let s =
          Check.replay ~lowered:a.Diff.a_lowered ~graph:a.Diff.a_graph
            ~schedule:a.Diff.a_schedule ~layout:a.Diff.a_layout
            ~jitter:case.Gen.g_jitter ~script:[] ()
        in
        acc + s.Sim.total_cycles)
    0 Diff.techniques
