(* The host-speed probe: a fixed kernel timed between the operations.

   On a shared host the CPU time of the same work drifts by a quarter and
   more within minutes, as other tenants load the cores, caches and memory
   the process runs on. The kernel below does the same work every time, so
   its CPU time follows that drift; multiplying an op's CPU time by
   [scale] around it turns it into nominal seconds: the seconds the op
   takes on a host that runs the kernel in [nominal_s] (a 2.1 GHz Xeon VM
   does, give or take a fifth).

   The kernel builds an integer map by 2000 random insertions: young
   allocation, path copying and pointer chasing through the nodes, as the
   program's own passes do. Among the kernels tried (pointer chases over
   256 KiB to 4 MiB and integer loops) its time tracks the program's best,
   because it is made of the same kind of work. Its garbage dies young, so
   it adds little to the collector's work. *)

module IM = Map.Make (Int)

let inserts = 2000
let nominal_s = 5e-4

let kernel () =
  let m = ref IM.empty and x = ref 12345 in
  for _ = 1 to inserts do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    m := IM.add (!x land 0xffff) !x !m
  done;
  Sys.opaque_identity (IM.cardinal !m)

(* CPU seconds of one kernel run *)
let sample () =
  let t = Spans.clock () in
  ignore (kernel ());
  Spans.clock () -. t

(* The factor that turns CPU seconds measured next to sample [i] of
   [samples] into nominal seconds: the nominal kernel time over the median
   of the samples within [w] of [i]. *)
let scale samples i =
  let w = 3 in
  let n = Array.length samples in
  let lo = max 0 (i - w) and hi = min (n - 1) (i + w) in
  let window = Array.sub samples lo (hi - lo + 1) in
  Array.sort compare window;
  let m = Array.length window in
  let med =
    if m mod 2 = 1 then window.(m / 2)
    else (window.((m / 2) - 1) +. window.(m / 2)) /. 2.
  in
  nominal_s /. med
