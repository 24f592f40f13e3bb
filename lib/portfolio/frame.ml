let magic = "CPF1"
let protocol_version = 1
let header_len = 4 + 1 + 4 + 8

(* a coloring answer is a few KB; anything claiming more than this is not a
   frame we produced *)
let max_payload = 64 * 1024 * 1024

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_length of int
  | Bad_checksum
  | Bad_payload of string

let error_to_string = function
  | Bad_magic -> "bad magic"
  | Bad_version v -> Printf.sprintf "unknown protocol version %d" v
  | Bad_length n -> Printf.sprintf "implausible payload length %d" n
  | Bad_checksum -> "checksum mismatch"
  | Bad_payload m -> "bad payload: " ^ m

let fnv1a s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
             0x100000001B3L)
    s;
  !h

let encode payload =
  let b = Buffer.create (header_len + String.length payload) in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr protocol_version);
  Buffer.add_int32_be b (Int32.of_int (String.length payload));
  Buffer.add_int64_be b (fnv1a payload);
  Buffer.add_string b payload;
  Buffer.contents b

type state =
  | Awaiting
  | Got of string
  | Failed of error

type decoder = {
  buf : Buffer.t;
  mutable st : state;
  mutable frame_len : int;  (* header + payload, 0 until the length is read *)
}

let decoder () = { buf = Buffer.create 256; st = Awaiting; frame_len = 0 }

let state d = d.st
let bytes_received d = Buffer.length d.buf

(* validate as early as the available prefix allows, so 64 bytes of garbage
   fail on the magic rather than waiting for a length that never arrives;
   the header is parsed once, and the payload copied out once complete *)
let advance d =
  let n = Buffer.length d.buf in
  if d.frame_len = 0 then begin
    let prefix = min n 4 in
    if Buffer.sub d.buf 0 prefix <> String.sub magic 0 prefix then
      d.st <- Failed Bad_magic
    else if n >= 5 && Char.code (Buffer.nth d.buf 4) <> protocol_version then
      d.st <- Failed (Bad_version (Char.code (Buffer.nth d.buf 4)))
    else if n >= 9 then begin
      let len = Int32.to_int (String.get_int32_be (Buffer.sub d.buf 5 4) 0) in
      if len < 0 || len > max_payload then d.st <- Failed (Bad_length len)
      else d.frame_len <- header_len + len
    end
  end;
  if d.frame_len > 0 && n >= d.frame_len then begin
    let sum = String.get_int64_be (Buffer.sub d.buf 9 8) 0 in
    let payload = Buffer.sub d.buf header_len (d.frame_len - header_len) in
    if fnv1a payload <> sum then d.st <- Failed Bad_checksum
    else d.st <- Got payload
  end

let feed d buf n =
  match d.st with
  | Got _ | Failed _ -> ()
  | Awaiting ->
    Buffer.add_subbytes d.buf buf 0 n;
    advance d

(* Consume the completed frame but keep any surplus bytes already buffered:
   a single read may deliver the tail of one frame plus the head of the
   next (the clause-share streams are multi-frame), and dropping the
   surplus would desynchronise the stream. After a [Failed] there is no
   trustworthy framing left to resynchronise against, so everything is
   discarded. Re-advances immediately, so a fully-buffered second frame is
   visible as [Got] without another [feed]. *)
let reset d =
  (match d.st with
  | Got _ ->
    let n = Buffer.length d.buf in
    let surplus = Buffer.sub d.buf d.frame_len (n - d.frame_len) in
    Buffer.clear d.buf;
    Buffer.add_string d.buf surplus
  | Awaiting | Failed _ -> Buffer.clear d.buf);
  d.st <- Awaiting;
  d.frame_len <- 0;
  if Buffer.length d.buf > 0 then advance d

(* ------------------------------------------------------------------ *)
(* Robust fd I/O: every socket/pipe write in the serving stack goes through
   these, so a short write, EINTR, a full socket buffer, or a peer that
   vanished (EPIPE/ECONNRESET) is a typed result — never a lost byte, a
   busy-loop, or a SIGPIPE death. *)

let ignore_sigpipe () =
  (* a write to a half-closed socket must surface as EPIPE for the retry
     logic to classify, not kill the whole process *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

type io_error =
  | Closed            (* EPIPE / ECONNRESET / EOF: the peer is gone *)
  | Io_timeout        (* the deadline passed before the I/O completed *)
  | Io_failed of string

let io_error_to_string = function
  | Closed -> "peer closed the connection"
  | Io_timeout -> "I/O deadline exceeded"
  | Io_failed m -> "I/O error: " ^ m

(* wait until [fd] is ready (read or write); bounded slices so the deadline
   is honoured even if select keeps getting interrupted *)
let wait_ready ~for_write fd ~deadline =
  let now = Colib_clock.Mclock.now () in
  if now >= deadline then Error Io_timeout
  else begin
    let slice = Float.min 0.25 (deadline -. now) in
    let r, w = if for_write then ([], [ fd ]) else ([ fd ], []) in
    match Unix.select r w [] slice with
    | [], [], [] -> Ok `Again
    | _ -> Ok `Ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> Ok `Again
  end

(* A finite deadline is only enforceable if the syscalls return instead of
   blocking: switch the fd to non-blocking (and leave it there — both
   helpers handle EAGAIN, so subsequent frame I/O on the fd still works). *)
let arm_deadline fd deadline =
  if deadline < infinity then
    try Unix.set_nonblock fd with Unix.Unix_error _ -> ()

let write_frame ?(deadline = infinity) fd payload =
  arm_deadline fd deadline;
  let s = encode payload in
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off >= len then Ok ()
    else
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        match wait_ready ~for_write:true fd ~deadline with
        | Ok _ -> go off
        | Error e -> Error e)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        Error Closed
      | exception Unix.Unix_error (e, _, _) ->
        Error (Io_failed (Unix.error_message e))
  in
  go 0

type read_error =
  | Read_closed of int   (* EOF after this many bytes — 0 = no reply at all *)
  | Read_timeout
  | Read_frame of error  (* protocol violation: garbage, bad checksum, ... *)
  | Read_failed of string

let read_error_to_string = function
  | Read_closed 0 -> "connection closed before any reply"
  | Read_closed n -> Printf.sprintf "connection closed mid-frame (%d bytes)" n
  | Read_timeout -> "read deadline exceeded"
  | Read_frame e -> "garbage frame: " ^ error_to_string e
  | Read_failed m -> "read error: " ^ m

(* Reads the header, then exactly the payload it announces, and never past
   the frame: bytes behind it (a reply sent right after an [Accepted]) stay
   in the socket for the next call. *)
let read_frame ?(deadline = infinity) fd =
  arm_deadline fd deadline;
  let d = decoder () in
  let buf = Bytes.create 65536 in
  let rec go () =
    let missing =
      (if d.frame_len = 0 then header_len else d.frame_len) - bytes_received d
    in
    match state d with
    | Got payload -> Ok payload
    | Failed e -> Error (Read_frame e)
    | Awaiting -> (
      match Unix.read fd buf 0 (min (Bytes.length buf) missing) with
      | 0 -> Error (Read_closed (bytes_received d))
      | n ->
        feed d buf n;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        match wait_ready ~for_write:false fd ~deadline with
        | Ok _ -> go ()
        | Error Io_timeout -> Error Read_timeout
        | Error Closed -> Error (Read_closed (bytes_received d))
        | Error (Io_failed m) -> Error (Read_failed m))
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
        Error (Read_closed (bytes_received d))
      | exception Unix.Unix_error (e, _, _) ->
        Error (Read_failed (Unix.error_message e)))
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Job request/response messages: the coloring service's wire format,
   layered inside the checksummed frames above. Each payload starts with a
   4-byte message tag carrying its own version digit, so a frame that
   checksums but carries the wrong message kind — or a message from a
   future protocol — is a typed error rather than an unmarshal crash. *)

let request_tag = "CRQ1"
let response_tag = "CRS1"

type job = {
  job_id : string;
  dimacs : string;
  j_k : int option;
  deadline : float;
  strategies : string;
  sbp : string;
  instance_dependent : bool;
  j_seed : int;
}

type session_edit = {
  se_sid : string;
  se_seq : int;
  se_op : string;   (* Session.edit wire form: "v" / "e U V" / "d U V" *)
}

type session_query = {
  sq_sid : string;
  sq_seq : int;
  sq_budget : float;
}

type request =
  | Submit of job
  | Ping
  | Health
  | Sess_open of {
      so_sid : string;
      so_vertices : int;
      so_colors : int;
      so_edges : int;
      so_lease : float;
    }
  | Sess_edit of session_edit
  | Sess_query of session_query
  | Sess_close of { sc_sid : string }

type job_result = {
  r_job_id : string;
  r_outcome : string;
  r_colors : int option;
  r_coloring : int array option;
  r_winner : string option;
  r_certified : bool;
  r_detail : string;
  r_time : float;
  r_replayed : bool;
}

type health = {
  h_queued : int;
  h_running : int;
  h_completed : int;
  h_uptime : float;
  h_durability : string;
  h_restarts : int;
  h_last_io_error : string;
  h_pending_journal : int;
  h_pool_warm : int;
  h_pool_busy : int;
  h_pool_recycling : int;
  h_pool_restarts : int;
  h_pool_recycles : int;
  h_cache_hits : int;
  h_cache_misses : int;
  h_coalesced : int;
  h_peers : string list;
  h_sess_open : int;
  h_sess_evicted : int;
  h_sess_expired : int;
  h_sess_replayed : int;
  h_sess_recovered : int;
}

type session_answer = {
  sa_sid : string;
  sa_seq : int;
  sa_chi : int;
  sa_coloring : int array;
  sa_certified : bool;
  sa_incremental : bool;
  sa_time : float;
  sa_replayed : bool;
}

type response =
  | Accepted of string
  | Overloaded of { queued : int; capacity : int }
  | Rejected of { rj_job_id : string; reason : string }
  | Result of job_result
  | Pong
  | Unavailable of { u_reason : string }
  | Health_report of health
  | Sess_ok of { sk_sid : string; sk_seq : int; sk_replayed : bool }
  | Sess_answer of session_answer
  | Sess_expired of { sx_sid : string }
  | Sess_evicted of { sv_sid : string }

(* ------------------------------------------------------------------ *)
(* Clause-share payloads: short learned clauses exchanged between solver
   workers over the same checksummed frames. Unlike the job messages below,
   a share payload crosses a trust boundary (a forged peer frame must not
   be able to crash the receiver), so it is plain text — semicolon-separated
   clauses of comma-separated raw literal ints — parsed with
   [int_of_string_opt], never [Marshal] on untrusted bytes. Decoded clauses
   are still only *candidates*: the receiving engine's RUP admission gate
   decides whether they enter the database. *)

let share_tag = "CSH1"

let is_share payload =
  String.length payload >= 4 && String.sub payload 0 4 = share_tag

let encode_share clauses =
  let b = Buffer.create 64 in
  Buffer.add_string b share_tag;
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ';';
      List.iteri
        (fun j l ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b (string_of_int l))
        c)
    clauses;
  Buffer.contents b

let decode_share payload =
  if not (is_share payload) then None
  else
    let body = String.sub payload 4 (String.length payload - 4) in
    if body = "" then Some []
    else
      let exception Bad in
      try
        Some
          (String.split_on_char ';' body
          |> List.map (fun cs ->
                 String.split_on_char ',' cs
                 |> List.map (fun l ->
                        match int_of_string_opt l with
                        | Some i -> i
                        | None -> raise Bad)))
      with Bad -> None

let with_tag tag v = tag ^ Marshal.to_string v []

let decode_tagged ~expect ~other payload =
  let n = String.length payload in
  if n < 4 then Error (Bad_payload "message shorter than its tag")
  else
    let tag = String.sub payload 0 4 in
    if tag = expect then
      match Marshal.from_string payload 4 with
      | v -> Ok v
      | exception e -> Error (Bad_payload (Printexc.to_string e))
    else if String.sub tag 0 3 = String.sub expect 0 3 then
      (* same message kind, other protocol generation *)
      Error (Bad_version (Char.code tag.[3] - Char.code '0'))
    else if tag = other then
      Error (Bad_payload "wrong message direction")
    else Error (Bad_payload (Printf.sprintf "unknown message tag %S" tag))

let encode_request (r : request) = with_tag request_tag r

let decode_request payload : (request, error) Stdlib.result =
  decode_tagged ~expect:request_tag ~other:response_tag payload

let encode_response (r : response) = with_tag response_tag r

let decode_response payload : (response, error) Stdlib.result =
  decode_tagged ~expect:response_tag ~other:request_tag payload
