(* Shared plumbing of the benchmark: clocks, order statistics, host
   context read from /proc, the result record and its JSON line. Nothing
   here calls into lib/ except the monotonic clock. *)

let now = Colib_clock.Mclock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------- order statistics ---------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* nearest-rank percentile, q in [0, 1] *)
let percentile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let percentile l q = percentile_sorted (sorted l) q

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum l = List.fold_left ( +. ) 0.0 l

(* ---------- host context ---------- *)

let read_file path =
  match open_in_bin path with
  | ic ->
    let b = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel b ic 1
       done
     with End_of_file -> ());
    close_in_noerr ic;
    Some (Buffer.contents b)
  | exception Sys_error _ -> None

(* aggregate steal ticks of the host ("cpu" line of /proc/stat, 8th
   field), or -1 where /proc is unavailable *)
let steal_ticks () =
  match read_file "/proc/stat" with
  | None -> -1
  | Some s -> (
    match String.split_on_char '\n' s with
    | line :: _ -> (
      match
        List.filter (fun w -> w <> "") (String.split_on_char ' ' line)
      with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
        Option.value (int_of_string_opt steal) ~default:(-1)
      | _ -> -1)
    | [] -> -1)

(* a field of /proc/<pid>/status in kB, 0 when unreadable *)
let status_kb pid field =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = field -> (
          let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          match String.index_opt rest ' ' with
          | Some j -> Option.value (int_of_string_opt (String.sub rest 0 j)) ~default:acc
          | None -> Option.value (int_of_string_opt rest) ~default:acc)
        | _ -> acc)
      0
      (String.split_on_char '\n' s)

let peak_rss_mb_of pid = float_of_int (status_kb pid "VmHWM") /. 1024.0
let self_peak_rss_mb () = peak_rss_mb_of "self"

(* children of [pid], from the ppid field of every /proc/<n>/stat *)
let children_of pid =
  match Sys.readdir "/proc" with
  | exception Sys_error _ -> []
  | entries ->
    Array.fold_left
      (fun acc e ->
        match int_of_string_opt e with
        | None -> acc
        | Some child -> (
          match read_file (Printf.sprintf "/proc/%d/stat" child) with
          | None -> acc
          | Some st -> (
            (* "pid (comm) state ppid ..." — comm may hold spaces *)
            match String.rindex_opt st ')' with
            | None -> acc
            | Some i -> (
              match
                String.split_on_char ' '
                  (String.sub st (i + 2) (String.length st - i - 2))
              with
              | _state :: ppid :: _ when int_of_string_opt ppid = Some pid ->
                child :: acc
              | _ -> acc))))
      [] entries

(* A fixed loop that calls nothing in lib/: its time, printed beside every
   result, tells a slowed host apart from a slowed program. *)
let reference_loop () =
  let t0 = now () in
  let h = ref 0x9E3779B9 in
  for i = 1 to 30_000_000 do
    h := (!h lxor i) * 0x01000193 land 0x3FFFFFFF
  done;
  let dt = now () -. t0 in
  if !h = -1 then print_string "";
  dt

(* ---------- files ---------- *)

let rec mkdir_p p =
  if not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let file_size path = (Unix.stat path).Unix.st_size

(* ---------- run context and result ---------- *)

type ctx = {
  seed : int;
  seconds : float;
  traced : bool;
  work_dir : string;  (** scratch directory of this run, inside the checkout *)
  t_start : float;    (** process start, on the monotonic clock *)
}

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  attempted : int;
  failed : int;
  errors : string list;  (** failed output checks; any makes [correct] false *)
  metrics : metric list;
  context : (string * string) list;  (** extra context, JSON-encoded values *)
}

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* full precision, never NaN/inf in the output *)
let json_float x =
  if not (Float.is_finite x) then "0"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_floats l =
  "[" ^ String.concat ", " (List.map (Printf.sprintf "%.4f") l) ^ "]"

(* Rounds: whole batches of the same operations, as many as fit in
   [seconds] at the median pace of the rounds run so far (one stalled
   round does not end the run early), at least [min], so every run
   attempts a multiple of one round and ends near [seconds]. *)
let rounds ?(min = 1) ctx f =
  let t0 = now () in
  let rec go i durations =
    let r0 = now () in
    f i;
    let durations = (now () -. r0) :: durations in
    if i + 1 < min || now () -. t0 +. median durations <= ctx.seconds then
      go (i + 1) durations
    else i + 1
  in
  go 0 []
