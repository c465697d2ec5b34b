(* In-memory span recorder for the traced run.

   A span is one call into a layer: a name, a start and an end, the span
   that was open when it began (its parent) and the operation it belongs
   to. Spans are only appended to memory while the run measures; [write]
   turns them into a Chrome trace-event file at exit.

   Times are CPU seconds of this process ([clock]), not wall seconds: on
   a shared host the process is descheduled for stretches that have
   nothing to do with the program, and CPU time leaves them out. The
   program runs ops on one domain, so its CPU time is the ops' time. *)

let clock () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type t = {
  name : string;
  op : int;  (** operation id, -1 outside any operation *)
  parent : int;  (** index of the enclosing span, -1 for a root *)
  start : float;
  mutable stop : float;
}

let recorded : t list ref = ref []
let count = ref 0
let open_ : int list ref = ref []
let op = ref (-1)

let with_op id f =
  let saved = !op in
  op := id;
  Fun.protect ~finally:(fun () -> op := saved) f

let span name f =
  let s =
    {
      name;
      op = !op;
      parent = (match !open_ with p :: _ -> p | [] -> -1);
      start = clock ();
      stop = nan;
    }
  in
  let id = !count in
  incr count;
  recorded := s :: !recorded;
  open_ := id :: !open_;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- clock ();
      open_ := List.tl !open_)
    f

let all () = Array.of_list (List.rev !recorded)

(* Self time of every span: its duration minus the durations of its
   children. Children nest inside their parent, so the subtraction never
   double counts. *)
let self_times (spans : t array) =
  let self = Array.map (fun s -> s.stop -. s.start) spans in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        self.(s.parent) <- self.(s.parent) -. (s.stop -. s.start))
    spans;
  self

(* Self time summed by span name over the spans [first, last). *)
let self_by_name ~first ~last =
  let spans = all () in
  let self = self_times spans in
  let tbl = Hashtbl.create 32 in
  for i = first to last - 1 do
    let n = spans.(i).name in
    Hashtbl.replace tbl n
      (self.(i) +. Option.value (Hashtbl.find_opt tbl n) ~default:0.)
  done;
  tbl

let write path =
  let spans = all () in
  let t0 = if Array.length spans = 0 then 0. else spans.(0).start in
  let us t = (t -. t0) *. 1e6 in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      Array.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
             \"dur\":%.3f,\"args\":{\"id\":%d,\"op\":%d,\"parent\":%d}}"
            (if i = 0 then "" else ",")
            s.name (us s.start)
            (us s.stop -. us s.start)
            i s.op s.parent)
        spans;
      output_string oc "\n]}\n")
