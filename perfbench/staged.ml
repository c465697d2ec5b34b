(* The traced run's pipeline: the calls [Runner.run_loop] and
   [Check.run_case] make, in their order, made one layer at a time so that
   each call gets a span, plus the work counters of each layer.

   This is a copy of those two entry points. Main compares every op's
   output here (schedule digest and [Sim.stats], or the model checker's
   verdicts) with the real entry point's, so the copy cannot drift from
   what users run unnoticed.

   After an op's own calls come the calls only the traced run makes, each
   in its own span: [sched.mii] (the MII of every schedule, the base of
   [sched.ii_over_mii]), on litmus one nominal [sim.run] of every schedule
   (the model checker simulates only inside [check.explore]), and
   [trace.audit], one re-simulation recording events plus
   [Audit.check]. *)

module M = Vliw_arch.Machine
module G = Vliw_ddg.Graph
module S = Vliw_sched.Schedule
module Driver = Vliw_sched.Driver
module Hybrid = Vliw_sched.Hybrid
module Chains = Vliw_core.Chains
module Ddgt = Vliw_core.Ddgt
module Lower = Vliw_lower.Lower
module Profile = Vliw_profile.Profile
module Sim = Vliw_sim.Sim
module W = Vliw_workloads.Workloads
module R = Vliw_harness.Runner
module Memo = Vliw_harness.Memo
module V = Vliw_verify.Verify
module Trace = Vliw_trace.Trace
module Audit = Vliw_trace.Audit
module Check = Vliw_check.Check
module Diff = Vliw_fuzz.Diff
module Gen = Vliw_fuzz.Gen
module Oracle = Vliw_fuzz.Oracle
module Layout = Vliw_ir.Layout
module Interp = Vliw_ir.Interp

let span = Spans.span

type counters = {
  mutable ii_sum : int;
  mutable mii_sum : int;
  mutable lower_nodes : int;  (** lowered DDG size, summed over ops *)
  mutable graph_nodes : int;  (** scheduled DDG size, summed over ops *)
  mutable obligations : int;
  mutable checked : int;  (** schedules [verify.check] examined *)
  mutable certified : int;
  mutable states : int;
  mutable pruned : int;
  mutable leaves : int;
  mutable sim_cycles : int;  (** cycles simulated in [sim.run] spans *)
  mutable sim_stall : int;
  mutable events : int;  (** events recorded in [trace.audit] spans *)
}

let c =
  {
    ii_sum = 0;
    mii_sum = 0;
    lower_nodes = 0;
    graph_nodes = 0;
    obligations = 0;
    checked = 0;
    certified = 0;
    states = 0;
    pruned = 0;
    leaves = 0;
    sim_cycles = 0;
    sim_stall = 0;
    events = 0;
  }

(* The traced front end's cache, keyed as [Memo] keys its own, so an op
   group shares its front end exactly as in the untraced pass. *)
let parse_tbl : (string * string * int, Vliw_ir.Ast.kernel) Hashtbl.t =
  Hashtbl.create 64

let stage_tbl : (string * string * int * int * string, Memo.stages) Hashtbl.t =
  Hashtbl.create 64

(* Start a pass: cold cache, zero counters. *)
let reset () =
  Hashtbl.reset parse_tbl;
  Hashtbl.reset stage_tbl;
  c.ii_sum <- 0;
  c.mii_sum <- 0;
  c.lower_nodes <- 0;
  c.graph_nodes <- 0;
  c.obligations <- 0;
  c.checked <- 0;
  c.certified <- 0;
  c.states <- 0;
  c.pruned <- 0;
  c.leaves <- 0;
  c.sim_cycles <- 0;
  c.sim_stall <- 0;
  c.events <- 0

let snapshot () = { c with ii_sum = c.ii_sum }

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.replace tbl key v;
    v

let parse ~(bench : W.benchmark) ~seed (loop : W.loop) =
  memo parse_tbl (bench.W.b_name, loop.W.l_name, seed) (fun () ->
      span "ir.parse" (fun () -> W.parse_loop loop ~seed))

(* Memo.stages: parse, layout, profile, lower, oracle *)
let stages ~machine ~(bench : W.benchmark) (loop : W.loop) =
  let key =
    ( bench.W.b_name,
      loop.W.l_name,
      bench.W.b_profile_seed,
      bench.W.b_exec_seed,
      Memo.fingerprint machine )
  in
  memo stage_tbl key (fun () ->
      let kernel_prof = parse ~bench ~seed:bench.W.b_profile_seed loop in
      let kernel_exec = parse ~bench ~seed:bench.W.b_exec_seed loop in
      let layout = span "ir.layout" (fun () -> Layout.make kernel_exec) in
      let layout_prof = span "ir.layout" (fun () -> Layout.make kernel_prof) in
      let prof =
        span "profile.run" (fun () ->
            Profile.run ~machine ~layout:layout_prof kernel_prof)
      in
      let lowered = span "lower.lower" (fun () -> Lower.lower kernel_exec) in
      let oracle = span "ir.interp" (fun () -> Interp.run ~layout kernel_exec) in
      { Memo.kernel_prof; kernel_exec; layout; prof; lowered; oracle })

let verify_technique = function
  | R.Free -> V.Free
  | R.Mdc -> V.Mdc
  | R.Ddgt -> V.Ddgt
  | R.Hybrid -> V.Hybrid

let verify ~machine ~technique ~base ~layout ~graph ~schedule =
  let r =
    span "verify.check" (fun () ->
        V.check ~machine ~technique ~base ~layout ~graph ~schedule ())
  in
  c.checked <- c.checked + 1;
  c.obligations <- c.obligations + r.V.r_obligations;
  if r.V.r_verified then c.certified <- c.certified + 1;
  r

let mii ~machine ~heuristic ~constraints graph (s : S.t) =
  let m =
    span "sched.mii" (fun () ->
        Driver.mii machine graph (Driver.request ~heuristic ~constraints machine))
  in
  c.ii_sum <- c.ii_sum + s.S.ii;
  c.mii_sum <- c.mii_sum + m;
  c.graph_nodes <- c.graph_nodes + G.node_count graph

let sim_run f =
  let (s : Sim.stats) = span "sim.run" f in
  c.sim_cycles <- c.sim_cycles + s.Sim.total_cycles;
  c.sim_stall <- c.sim_stall + s.Sim.stall_cycles;
  s

(* One traced re-simulation and the replay audit of its events. *)
let audit ~protocol run =
  span "trace.audit" (fun () ->
      let sink = Trace.create () in
      let (s : Sim.stats) = run sink in
      c.events <- c.events + Trace.length sink;
      Audit.check sink ~protocol ~prot_invalidations:s.Sim.prot_invalidations
        ~violations:s.Sim.violations ~nullified:s.Sim.nullified
      |> Result.map ignore)

(* Runner.run_loop with its defaults (cache-sensitive latencies, Height
   ordering, no observability). *)
let run_loop (o : Ops.loop_op) =
  let machine = o.Ops.machine and technique = o.Ops.technique
  and heuristic = o.Ops.heuristic in
  let st = stages ~machine ~bench:o.Ops.bench o.Ops.loop in
  let layout = st.Memo.layout and prof = st.Memo.prof and low = st.Memo.lowered in
  let base = low.Lower.graph in
  c.lower_nodes <- c.lower_nodes + G.node_count base;
  let pref = span "profile.node_pref" (fun () -> Profile.node_pref prof base) in
  let compiled =
    match technique with
    | R.Hybrid ->
      span "sched.hybrid" (fun () ->
          Hybrid.choose ~machine ~heuristic ~pref_for:(Profile.node_pref prof)
            ~trip:st.Memo.kernel_exec.Vliw_ir.Ast.k_trip base)
      |> Result.map (fun h -> (h.Hybrid.graph, h.Hybrid.constraints, h.Hybrid.schedule))
    | R.Free | R.Mdc | R.Ddgt ->
      let graph, constraints =
        match technique with
        | R.Mdc ->
          ( base,
            span "core.transform" (fun () ->
                match heuristic with
                | S.Pref_clus -> Chains.prefclus base ~pref
                | S.Min_coms -> Chains.mincoms base) )
        | R.Ddgt ->
          let r =
            span "core.transform" (fun () ->
                Ddgt.transform ~clusters:machine.M.clusters base)
          in
          (r.Ddgt.graph, Chains.no_constraints ())
        | R.Free | R.Hybrid -> (base, Chains.no_constraints ())
      in
      let pref_g =
        if technique = R.Ddgt then
          span "profile.node_pref" (fun () -> Profile.node_pref prof graph)
        else pref
      in
      let check =
        match technique with
        | R.Mdc | R.Ddgt ->
          let gate =
            V.gate ~machine ~technique:(verify_technique technique) ~base ~layout ()
          in
          fun g s -> span "verify.gate" (fun () -> gate g s)
        | R.Free | R.Hybrid -> fun _ _ -> Ok ()
      in
      span "sched.driver" (fun () ->
          Driver.run
            (Driver.request ~heuristic ~constraints ~pref:pref_g ~check machine)
            graph)
      |> Result.map (fun s -> (graph, constraints, s))
  in
  match compiled with
  | Error e -> Error ("cannot schedule: " ^ e)
  | Ok (graph, constraints, schedule) -> (
    let report =
      verify ~machine ~technique:(verify_technique technique) ~base ~layout ~graph
        ~schedule
    in
    let oracle = st.Memo.oracle in
    let simulate ?trace () =
      Sim.run ~lowered:low ~graph ~schedule ~layout ~mode:(Sim.Oracle oracle)
        ~warm:true ?trace ()
    in
    let stats = sim_run simulate in
    mii ~machine ~heuristic ~constraints graph schedule;
    let obs =
      {
        Ops.digest = Vliw_serve.Engine.schedule_digest schedule;
        stats;
        ii = schedule.S.ii;
        nodes = G.node_count base;
        graph_nodes = G.node_count graph;
      }
    in
    Result.bind
      (Ops.check_loop o ~verified:report.V.r_verified stats)
      (fun () ->
        audit ~protocol:machine.M.protocol (fun sink -> simulate ~trace:sink ()))
    |> Result.map (fun () -> Ops.Loop_obs obs))

(* Check.run_case with its defaults (Diff's verifier, default config, the
   case's declared jitter). *)
let run_case (case : Gen.case) =
  let jitter = case.Gen.g_jitter and kernel = case.Gen.g_kernel in
  let layout0 = span "ir.layout" (fun () -> Layout.make kernel) in
  let oracle = span "fuzz.oracle" (fun () -> Oracle.run ~layout:layout0 kernel) in
  let interp = span "ir.interp" (fun () -> Interp.run ~layout:layout0 kernel) in
  let reference = span "fuzz.oracle" (fun () -> Oracle.compare_interp oracle interp) in
  let per_tech tech =
    match span "fuzz.compile" (fun () -> Diff.compile case tech) with
    | Error _ -> ((tech, None), None)
    | Ok a ->
      let report =
        verify ~machine:a.Diff.a_machine ~technique:(Diff.verify_technique tech)
          ~base:a.Diff.a_lowered.Lower.graph ~layout:a.Diff.a_layout
          ~graph:a.Diff.a_graph ~schedule:a.Diff.a_schedule
      in
      let certified = report.V.r_verified && (jitter = 0 || report.V.r_jitter_robust) in
      let o =
        span "check.explore" (fun () ->
            Check.explore ~lowered:a.Diff.a_lowered ~graph:a.Diff.a_graph
              ~schedule:a.Diff.a_schedule ~layout:a.Diff.a_layout ~jitter
              ~expected:oracle.Oracle.o_memory ~certified ())
      in
      c.states <- c.states + o.Check.k_states;
      c.pruned <- c.pruned + o.Check.k_pruned;
      c.leaves <- c.leaves + o.Check.k_leaves;
      c.lower_nodes <- c.lower_nodes + G.node_count a.Diff.a_lowered.Lower.graph;
      ((tech, Some (report.V.r_verified, o)), Some a)
  in
  let results = List.map per_tech Diff.techniques in
  let techs = List.map fst results in
  (* the calls only the traced run makes *)
  let extras =
    List.filter_map snd results
    |> List.map (fun a ->
           let replay ?trace () =
             Check.replay ~lowered:a.Diff.a_lowered ~graph:a.Diff.a_graph
               ~schedule:a.Diff.a_schedule ~layout:a.Diff.a_layout ~jitter ~script:[]
               ?trace ()
           in
           ignore (sim_run replay);
           mii ~machine:a.Diff.a_machine ~heuristic:a.Diff.a_heuristic
             ~constraints:(Chains.no_constraints ()) a.Diff.a_graph a.Diff.a_schedule;
           audit ~protocol:a.Diff.a_machine.M.protocol (fun sink ->
               replay ~trace:sink ()))
  in
  (* unschedulable techniques, counterexamples and capped explorations are
     in [techs], which main checks against the untraced [Check.run_case] *)
  match List.find_opt Result.is_error (reference :: extras) with
  | Some (Error e) -> Error e
  | _ -> Ok (Ops.Litmus_obs techs)

let run (op : Ops.t) =
  Spans.with_op op.Ops.id (fun () ->
      span "op" (fun () ->
          match op.Ops.kind with
          | Ops.Loop o -> (try run_loop o with e -> Error (Printexc.to_string e))
          | Ops.Litmus { case; _ } -> (
            try run_case case with e -> Error (Printexc.to_string e))))
