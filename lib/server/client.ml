module Frame = Colib_portfolio.Frame
module Chaos = Colib_check.Chaos
module Mclock = Colib_clock.Mclock

(* ------------------------------------------------------------------ *)
(* Failure taxonomy. The retry loop treats these distinctly:
   - Unreachable / Disconnected / Protocol are transient: a daemon that is
     restarting after a crash looks exactly like this, so we retry with
     backoff;
   - Overloaded is transient but *informed*: the daemon told us it shed the
     job, so we also retry with backoff (the job was never accepted, a
     resubmit is safe);
   - Rejected is permanent: the request itself is bad; retrying cannot
     help and would hammer the daemon. *)

type failure =
  | Unreachable of string   (** connect failed: daemon down or socket gone *)
  | Disconnected of string  (** the connection died mid-exchange *)
  | Protocol of string      (** garbage, truncated, or misdirected frames *)
  | Overloaded of { queued : int; capacity : int }
  | Unavailable of string   (** durability degraded: disk full / I/O errors *)
  | Rejected of { job_id : string; reason : string }
  | Session_expired of string  (** the session's lease lapsed; permanent *)
  | Session_evicted of string  (** the session was LRU-shed; permanent *)

let failure_to_string = function
  | Unreachable m -> "daemon unreachable: " ^ m
  | Disconnected m -> "disconnected: " ^ m
  | Protocol m -> "protocol violation: " ^ m
  | Overloaded { queued; capacity } ->
    Printf.sprintf "daemon overloaded (queue %d/%d)" queued capacity
  | Unavailable reason -> "daemon unavailable: " ^ reason
  | Rejected { job_id; reason } ->
    Printf.sprintf "job %s rejected: %s" job_id reason
  | Session_expired sid -> Printf.sprintf "session %s expired" sid
  | Session_evicted sid -> Printf.sprintf "session %s evicted" sid

(* Session_expired / Session_evicted are permanent BY DESIGN: the daemon
   reaped the session's state, so no amount of retrying the same frame can
   succeed — the client must open a fresh session and replay its own edit
   history. Retrying would hammer a daemon that already answered. *)
let transient = function
  | Unreachable _ | Disconnected _ | Protocol _ | Overloaded _
  | Unavailable _ -> true
  | Rejected _ | Session_expired _ | Session_evicted _ -> false

type give_up = {
  attempts : int;
  last : failure;  (** the failure of the final attempt *)
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let connect socket =
  match Server.sockaddr_of_spec socket with
  | addr -> (
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      close_quiet fd;
      Error (Unreachable (Unix.error_message e)))
  | exception Invalid_argument m -> Error (Unreachable m)

let send_request fd ~deadline req =
  match Frame.write_frame ~deadline fd (Frame.encode_request req) with
  | Ok () -> Ok ()
  | Error Frame.Closed -> Error (Disconnected "peer closed while writing")
  | Error Frame.Io_timeout -> Error (Disconnected "write timed out")
  | Error (Frame.Io_failed m) -> Error (Disconnected m)

let read_response fd ~deadline =
  match Frame.read_frame ~deadline fd with
  | Ok payload -> (
    match Frame.decode_response payload with
    | Ok resp -> Ok resp
    | Error e -> Error (Protocol (Frame.error_to_string e)))
  | Error (Frame.Read_closed 0) -> Error (Disconnected "no reply")
  | Error (Frame.Read_closed n) ->
    Error (Disconnected (Printf.sprintf "reply truncated after %d bytes" n))
  | Error Frame.Read_timeout -> Error (Disconnected "reply timed out")
  | Error (Frame.Read_frame e) -> Error (Protocol (Frame.error_to_string e))
  | Error (Frame.Read_failed m) -> Error (Disconnected m)

(* ------------------------------------------------------------------ *)
(* One attempt of the submit exchange: connect, submit, then read until a
   Result arrives. The daemon replies [Accepted] first; the subsequent
   result read runs under the job's own deadline plus slack, because a
   legitimate solve takes up to the deadline. *)

let one_attempt ~socket ~reply_slack (job : Frame.job) =
  match connect socket with
  | Error _ as e -> e
  | Ok fd -> (
    let finish r = close_quiet fd; r in
    let io_deadline = Mclock.now () +. 10.0 in
    match send_request fd ~deadline:io_deadline (Frame.Submit job) with
    | Error _ as e -> finish e
    | Ok () -> (
      match read_response fd ~deadline:io_deadline with
      | Error _ as e -> finish e
      | Ok (Frame.Overloaded { queued; capacity }) ->
        finish (Error (Overloaded { queued; capacity }))
      | Ok (Frame.Unavailable { u_reason }) ->
        finish (Error (Unavailable u_reason))
      | Ok (Frame.Rejected { rj_job_id; reason }) ->
        finish (Error (Rejected { job_id = rj_job_id; reason }))
      | Ok (Frame.Result r) -> finish (Ok r)
      | Ok (Frame.Accepted _) -> (
        let result_deadline =
          Mclock.now () +. job.Frame.deadline +. reply_slack
        in
        match read_response fd ~deadline:result_deadline with
        | Ok (Frame.Result r) -> finish (Ok r)
        | Ok (Frame.Unavailable { u_reason }) ->
          (* the daemon's durability degraded between accepting the job
             and delivering its result; the job is journaled (or will be
             re-run from the journal on the next life), so this is a
             transient condition to retry — not a protocol violation *)
          finish (Error (Unavailable u_reason))
        | Ok _ ->
          finish (Error (Protocol "expected a Result after Accepted"))
        | Error _ as e -> finish e)
      | Ok
          ( Frame.Pong | Frame.Health_report _ | Frame.Sess_ok _
          | Frame.Sess_answer _ | Frame.Sess_expired _ | Frame.Sess_evicted _
            ) ->
        finish (Error (Protocol "unexpected reply to Submit"))))

(* ------------------------------------------------------------------ *)
(* Chaos injection: perform the scripted fault instead of the real
   exchange, so tests drive the daemon through its network fault paths
   with the client's own machinery. *)

let inject_fault ~socket fault (job : Frame.job) =
  match fault with
  | Chaos.Daemon_sigkill ->
    (* only the harness can kill the daemon; from in here it just looks
       like a dead socket *)
    Error (Unreachable "daemon killed by harness")
  | Chaos.Disconnect_mid_frame -> (
    match connect socket with
    | Error _ as e -> e
    | Ok fd ->
      let wire = Frame.encode (Frame.encode_request (Frame.Submit job)) in
      let half = max 1 (String.length wire / 2) in
      (try ignore (Unix.write_substring fd wire 0 half : int)
       with Unix.Unix_error _ -> ());
      close_quiet fd;
      Error (Disconnected "injected: vanished mid-frame"))
  | Chaos.Slow_loris pace -> (
    match connect socket with
    | Error _ as e -> e
    | Ok fd ->
      let wire = Frame.encode (Frame.encode_request (Frame.Submit job)) in
      let rec drip i =
        if i >= String.length wire then
          Error (Disconnected "injected: slow-loris completed unexpectedly")
        else begin
          match Unix.write_substring fd wire i 1 with
          | _ -> Unix.sleepf pace; drip (i + 1)
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
            ->
            (* the daemon shed us: exactly what the test wants to see *)
            Error (Disconnected "injected: shed by the daemon mid-drip")
        end
      in
      let r = drip 0 in
      close_quiet fd;
      r)
  | Chaos.Net_garbage -> (
    match connect socket with
    | Error _ as e -> e
    | Ok fd ->
      let junk = String.init 64 (fun i -> Char.chr ((i * 37 + 11) land 0xff)) in
      (try ignore (Unix.write_substring fd junk 0 (String.length junk) : int)
       with Unix.Unix_error _ -> ());
      (* the daemon answers garbage with a typed Rejected, then closes *)
      let r =
        match read_response fd ~deadline:(Mclock.now () +. 5.0) with
        | Ok (Frame.Rejected { reason; _ }) ->
          Error (Protocol ("injected garbage; daemon replied: " ^ reason))
        | Ok _ -> Error (Protocol "injected garbage; unexpected reply")
        | Error f -> Error f
      in
      close_quiet fd;
      r)
  | Chaos.Net_truncated_frame -> (
    match connect socket with
    | Error _ as e -> e
    | Ok fd ->
      let wire = Frame.encode (Frame.encode_request (Frame.Submit job)) in
      (* full header (17 bytes) plus part of the payload, then EOF *)
      let cut = min (String.length wire) 21 in
      (try ignore (Unix.write_substring fd wire 0 cut : int)
       with Unix.Unix_error _ -> ());
      close_quiet fd;
      Error (Disconnected "injected: frame truncated at EOF"))

(* ------------------------------------------------------------------ *)
(* The retry loop: capped exponential backoff with deterministic jitter.
   delay(i) = min cap (base * 2^i) * (0.5 + u) with u uniform in [0,1)
   from a PRNG seeded by [jitter_seed] and [key], so retry storms from many
   clients decorrelate while tests stay reproducible. [attempt i] runs
   attempt number [i]. *)

type sleeper = float -> unit

let with_retries ?(retries = 4) ?(backoff = 0.1) ?(backoff_cap = 2.0)
    ?(jitter_seed = 0) ?(sleep : sleeper = Unix.sleepf) ~key attempt =
  Frame.ignore_sigpipe ();
  let rng = Random.State.make [| jitter_seed; Hashtbl.hash key |] in
  let rec go i last =
    if i > retries then Error { attempts = i; last }
    else
      match attempt i with
      | Ok r -> Ok r
      | Error f when transient f && i < retries ->
        let base = backoff *. (2.0 ** float_of_int i) in
        let delay =
          min backoff_cap base *. (0.5 +. Random.State.float rng 1.0)
        in
        sleep delay;
        go (i + 1) f
      | Error f -> Error { attempts = i + 1; last = f }
  in
  go 0 (Unreachable "no attempt made")

let submit ?retries ?backoff ?backoff_cap ?jitter_seed ?(reply_slack = 30.0)
    ?chaos ?sleep ?on_attempt ~socket (job : Frame.job) =
  with_retries ?retries ?backoff ?backoff_cap ?jitter_seed ?sleep
    ~key:job.Frame.job_id (fun i ->
      (match on_attempt with Some f -> f i | None -> ());
      match Option.bind chaos (fun plan -> Chaos.net_fault_for plan i) with
      | Some fault -> inject_fault ~socket fault job
      | None -> one_attempt ~socket ~reply_slack job)

let ping ?(timeout = 5.0) ~socket () =
  Frame.ignore_sigpipe ();
  match connect socket with
  | Error f -> Error f
  | Ok fd ->
    let deadline = Mclock.now () +. timeout in
    let r =
      match send_request fd ~deadline Frame.Ping with
      | Error _ as e -> e
      | Ok () -> (
        match read_response fd ~deadline with
        | Ok Frame.Pong -> Ok ()
        | Ok _ -> Error (Protocol "expected Pong")
        | Error _ as e -> e)
    in
    close_quiet fd;
    r

let health ?(timeout = 5.0) ~socket () =
  Frame.ignore_sigpipe ();
  match connect socket with
  | Error f -> Error f
  | Ok fd ->
    let deadline = Mclock.now () +. timeout in
    let r =
      match send_request fd ~deadline Frame.Health with
      | Error _ as e -> e
      | Ok () -> (
        match read_response fd ~deadline with
        | Ok (Frame.Health_report h) -> Ok h
        | Ok _ -> Error (Protocol "expected Health_report")
        | Error _ as e -> e)
    in
    close_quiet fd;
    r

(* ------------------------------------------------------------------ *)
(* Incremental sessions: each frame is one connect/exchange under the same
   retry discipline as [submit]. Frames are idempotent server-side (by
   sequence number), so an at-least-once retry after a crash or disconnect
   is safe: the daemon answers a duplicate from its journal-backed state
   with [replayed = true] instead of re-applying. *)

type sess_ack = { ack_seq : int; ack_replayed : bool }

(* one session exchange; [classify] maps the typed response to the
   caller's result, after the failure taxonomy is peeled off *)
let sess_exchange ~socket ~timeout req classify =
  match connect socket with
  | Error _ as e -> e
  | Ok fd -> (
    let finish r = close_quiet fd; r in
    let deadline = Mclock.now () +. timeout in
    match send_request fd ~deadline req with
    | Error _ as e -> finish e
    | Ok () -> (
      match read_response fd ~deadline with
      | Error _ as e -> finish e
      | Ok (Frame.Sess_expired { sx_sid }) ->
        finish (Error (Session_expired sx_sid))
      | Ok (Frame.Sess_evicted { sv_sid }) ->
        finish (Error (Session_evicted sv_sid))
      | Ok (Frame.Overloaded { queued; capacity }) ->
        finish (Error (Overloaded { queued; capacity }))
      | Ok (Frame.Unavailable { u_reason }) ->
        finish (Error (Unavailable u_reason))
      | Ok (Frame.Rejected { rj_job_id; reason }) ->
        finish (Error (Rejected { job_id = rj_job_id; reason }))
      | Ok resp -> finish (classify resp)))

let ack_of = function
  | Frame.Sess_ok { sk_seq; sk_replayed; _ } ->
    Ok { ack_seq = sk_seq; ack_replayed = sk_replayed }
  | _ -> Error (Protocol "expected Sess_ok")

let sess_open ?retries ?backoff ?backoff_cap ?jitter_seed ?sleep
    ?(timeout = 10.0) ?(lease = 0.0) ~socket ~sid ~vertices ~colors ~edges ()
    =
  with_retries ?retries ?backoff ?backoff_cap ?jitter_seed ?sleep ~key:sid
    (fun _ ->
      sess_exchange ~socket ~timeout
        (Frame.Sess_open
           {
             so_sid = sid;
             so_vertices = vertices;
             so_colors = colors;
             so_edges = edges;
             so_lease = lease;
           })
        ack_of)

let sess_edit ?retries ?backoff ?backoff_cap ?jitter_seed ?sleep
    ?(timeout = 10.0) ~socket ~sid ~seq edit =
  let op = Colib_session.Session.edit_to_string edit in
  with_retries ?retries ?backoff ?backoff_cap ?jitter_seed ?sleep ~key:sid
    (fun _ ->
      sess_exchange ~socket ~timeout
        (Frame.Sess_edit { se_sid = sid; se_seq = seq; se_op = op })
        ack_of)

let sess_query ?retries ?backoff ?backoff_cap ?jitter_seed ?sleep
    ?(reply_slack = 30.0) ?(budget = 0.0) ~socket ~sid ~seq () =
  with_retries ?retries ?backoff ?backoff_cap ?jitter_seed ?sleep ~key:sid
    (fun _ ->
      sess_exchange ~socket
        ~timeout:((if budget > 0.0 then budget else 30.0) +. reply_slack)
        (Frame.Sess_query { sq_sid = sid; sq_seq = seq; sq_budget = budget })
        (function
          | Frame.Sess_answer a -> Ok a
          | _ -> Error (Protocol "expected Sess_answer")))

let sess_close ?retries ?backoff ?backoff_cap ?jitter_seed ?sleep
    ?(timeout = 10.0) ~socket ~sid () =
  with_retries ?retries ?backoff ?backoff_cap ?jitter_seed ?sleep ~key:sid
    (fun _ ->
      sess_exchange ~socket ~timeout (Frame.Sess_close { sc_sid = sid })
        ack_of)
