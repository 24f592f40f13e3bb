(* In-memory spans around the benchmark's own calls into each layer.

   A span records its name, start and end on the program's monotonic clock
   (Colib_clock.Mclock), the span that encloses it, and the operation it
   belongs to (an instance, a query or a job). Spans stay in memory and
   are written out as JSON lines when the run ends. With tracing off,
   [span] is a direct call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at top level *)
  op : string;
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_op = ref ""

let span name f =
  if not !enabled then f ()
  else begin
    let s =
      {
        id = !next_id;
        name;
        parent = (match !stack with p :: _ -> p | [] -> -1);
        op = !current_op;
        t0 = Util.now ();
        t1 = nan;
      }
    in
    incr next_id;
    spans := s :: !spans;
    stack := s.id :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- Util.now ();
        stack := List.tl !stack)
  end

(* an operation: a top-level span whose id tags every span inside it *)
let op kind id f =
  let saved = !current_op in
  current_op := id;
  let r = span kind f in
  current_op := saved;
  r

(* Self time per span name, summed: a span's duration minus the part its
   direct children cover. Children never outlive their parent, so the
   covered part is the sum of the children's durations. *)
let self_times ?(from = 0) () =
  let spans = List.filter (fun s -> s.id >= from) !spans in
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((s.t1 -. s.t0)
          +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0
        -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0))
    spans;
  by_name

let count () = List.length !spans

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%s,\"parent\":%d,\"op\":%s,\"t0\":%.9f,\"t1\":%.9f}\n"
        s.id (Util.json_string s.name) s.parent (Util.json_string s.op) s.t0
        s.t1)
    (List.rev !spans);
  close_out oc
