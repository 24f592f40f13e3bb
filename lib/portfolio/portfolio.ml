module Graph = Colib_graph.Graph
module Exact_dsatur = Colib_graph.Exact_dsatur
module Prng = Colib_graph.Prng
module Types = Colib_solver.Types
module Checkpoint = Colib_solver.Checkpoint
module Sbp = Colib_encode.Sbp
module Certify = Colib_check.Certify
module Chaos = Colib_check.Chaos
module Rup = Colib_check.Rup
module Proof = Colib_sat.Proof
module Flow = Colib_core.Flow

external set_memory_limit_mb : int -> bool = "colib_set_memory_limit_mb"

(* ------------------------------------------------------------------ *)
(* Worker protocol: a worker sends exactly one marshalled reply inside one
   checksummed frame, then exits. Everything else — a signal death, an
   endless loop, random bytes, a half-written frame — is the supervisor's
   problem to classify, never to crash on. *)

type 'a reply =
  | Value of 'a
  | Oom_reply
  | Exn_reply of string

type 'a task = {
  key : int;                 (* spawn index; also the chaos-plan index *)
  thunk : share:Types.share option -> 'a;  (* runs in the child *)
  watchdog : float;          (* seconds until SIGKILL *)
  fault : Chaos.process_fault option;
  seed : int;
  mem_limit_mb : int option;
  wants_share : bool;
      (* give the child a clause-exchange channel: share frames it writes on
         the reply pipe are relayed to its siblings, and a second
         parent-to-child pipe feeds it their clauses *)
}

type 'a completion =
  | C_value of 'a
  | C_oom
  | C_exn of string
  | C_crashed of int
  | C_timed_out
  | C_garbled of string
  | C_cancelled

type 'a running = {
  task : 'a task;
  pid : int;
  fd : Unix.file_descr;
  import_w : Unix.file_descr option;
      (* parent's write end of the clause-import pipe, when the task wants
         sharing; always nonblocking — the relay drops frames rather than
         ever letting a slow child block the supervisor *)
  dec : Frame.decoder;
  started : float;
  kill_at : float;
  mutable eof : bool;
}

let kill_quiet pid =
  try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
  in
  go ()

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  (* EPIPE here means the supervisor already gave up on us; nothing to do *)
  try go 0 with Unix.Unix_error _ -> ()

(* The child's half of the clause exchange. Exports go out as [CSH1] share
   frames on the reply pipe (the supervisor relays them); imports arrive on
   [ir], a dedicated nonblocking pipe, as share frames from the relay. The
   hooks run on the engine's search path, so both are strictly nonblocking;
   if the channel ever garbles or the parent vanishes, sharing silently
   stops and the solve continues alone. Negative ints (possible in relayed
   forged traffic) are filtered before [Lit.of_index]; everything else is
   the receiving engine's RUP admission gate's problem. *)
let child_share ir wfd : Types.share =
  Unix.set_nonblock ir;
  let dec = Frame.decoder () in
  let rbuf = Bytes.create 8192 in
  let dead = ref false in
  let collect out =
    let rec go out =
      match Frame.state dec with
      | Frame.Got p ->
        let out =
          match Frame.decode_share p with
          | Some cls -> List.rev_append cls out
          | None -> out
        in
        Frame.reset dec;
        go out
      | Frame.Failed _ ->
        dead := true;
        out
      | Frame.Awaiting -> out
    in
    go out
  in
  let rec pump out =
    if !dead then out
    else
      match Unix.read ir rbuf 0 (Bytes.length rbuf) with
      | 0 ->
        dead := true;
        collect out
      | n ->
        Frame.feed dec rbuf n;
        pump (collect out)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        out
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump out
      | exception Unix.Unix_error _ ->
        dead := true;
        out
  in
  let sh_import () =
    List.rev_map
      (fun c -> List.map Colib_sat.Lit.of_index c)
      (List.filter
         (fun c -> List.for_all (fun l -> l >= 0) c)
         (pump (collect [])))
  in
  let sh_export clauses =
    if clauses <> [] && not !dead then
      write_all wfd
        (Frame.encode
           (Frame.encode_share
              (List.map (List.map Colib_sat.Lit.to_index) clauses)))
  in
  { Types.sh_export; sh_import }

let child_main (task : 'a task) ~import_r wfd : 'b =
  (* a supervisor that gave up on us closes its read end; the reply write
     must then fail as EPIPE (swallowed below), not kill us with SIGPIPE
     before the typed path runs *)
  Frame.ignore_sigpipe ();
  (match task.mem_limit_mb with
  | Some mb -> ignore (set_memory_limit_mb mb : bool)
  | None -> ());
  let send (reply : 'a reply) =
    (* a worker scripted to die mid-solve dies even when its search beat
       the timer: the supervisor sees the SIGKILL, never a reply *)
    (match task.fault with
    | Some (Chaos.Kill_mid_solve _) -> Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ());
    write_all wfd (Frame.encode (Marshal.to_string reply []))
  in
  (match task.fault with
  | Some Chaos.Segfault ->
    Unix.kill (Unix.getpid ()) Sys.sigsegv;
    Unix._exit 97
  | Some Chaos.Hang ->
    while true do
      Unix.sleepf 0.05
    done;
    Unix._exit 97
  | Some Chaos.Garbage ->
    let p = Prng.create task.seed in
    write_all wfd (String.init 64 (fun _ -> Char.chr (Prng.int p 256)));
    Unix._exit 0
  | Some Chaos.Truncated_frame ->
    let frame = Frame.encode (String.make 256 'f') in
    write_all wfd (String.sub frame 0 (String.length frame - 64));
    Unix._exit 0
  | Some (Chaos.Kill_mid_solve delay) ->
    (* a genuine uncatchable death in the middle of the search, not a
       cooperative cancellation: arm a real-time timer whose handler
       SIGKILLs this process, then start solving normally *)
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> Unix.kill (Unix.getpid ()) Sys.sigkill));
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.0; it_value = Float.max 0.001 delay }
        : Unix.interval_timer_status)
  | Some Chaos.Forged_share ->
    (* validly-framed, parseable, bogus clause-share traffic: the relay
       will broadcast it and every peer's RUP admission gate must absorb
       it (reject out-of-range literals, quarantine non-consequences)
       without any certified answer changing. Then solve normally. *)
    let p = Prng.create task.seed in
    for _ = 1 to 6 do
      let cls =
        List.init
          (1 + Prng.int p 2)
          (fun _ -> List.init (1 + Prng.int p 4) (fun _ -> Prng.int p 256))
      in
      write_all wfd (Frame.encode (Frame.encode_share cls))
    done
  | Some Chaos.Alloc_bomb | None -> ());
  let share =
    if task.wants_share then Option.map (fun ir -> child_share ir wfd) import_r
    else None
  in
  let thunk =
    match task.fault with
    | Some Chaos.Alloc_bomb -> fun ~share:_ -> raise Out_of_memory
    | _ -> task.thunk
  in
  (match thunk ~share with
  | v -> send (Value v)
  | exception Out_of_memory -> send Oom_reply
  | exception e -> send (Exn_reply (Printexc.to_string e)));
  Unix._exit 0

let spawn ~sibling_fds (task : 'a task) : 'a running =
  let r, w = Unix.pipe () in
  let import = if task.wants_share then Some (Unix.pipe ()) else None in
  match Unix.fork () with
  | 0 ->
    close_quiet r;
    (match import with Some (_, iw) -> close_quiet iw | None -> ());
    (* inherited ends of sibling pipes: close so we cannot interfere
       and the parent's fd accounting stays exact *)
    List.iter close_quiet sibling_fds;
    (* the parent's interrupt handlers make no sense in a worker; restore
       the default fatal behaviour so a terminal Ctrl-C kills us too *)
    (try Sys.set_signal Sys.sigint Sys.Signal_default with _ -> ());
    (try Sys.set_signal Sys.sigterm Sys.Signal_default with _ -> ());
    child_main task ~import_r:(Option.map fst import) w
  | pid ->
    Unix.close w;
    (match import with
    | Some (ir, iw) ->
      close_quiet ir;
      Unix.set_nonblock iw
    | None -> ());
    Unix.set_nonblock r;
    let now = Colib_clock.Mclock.now () in
    {
      task;
      pid;
      fd = r;
      import_w = Option.map snd import;
      dec = Frame.decoder ();
      started = now;
      kill_at = now +. task.watchdog;
      eof = false;
    }

(* release every parent-side fd of a consumed worker *)
let consume_fds w =
  close_quiet w.fd;
  match w.import_w with Some fd -> close_quiet fd | None -> ()

(* Read whatever the worker has written. The reply stream may interleave any
   number of [CSH1] clause-share frames before the single final reply frame;
   each completed share frame is handed to [on_share] and consumed
   immediately (the surplus-preserving [Frame.reset] keeps the head of the
   next frame), so [poll] below only ever sees the final reply or an
   error. *)
let drain ~on_share w =
  let buf = Bytes.create 65536 in
  let handle () =
    let rec go () =
      match Frame.state w.dec with
      | Frame.Got p when Frame.is_share p ->
        (match Frame.decode_share p with
        | Some cls -> on_share w cls
        | None -> ());
        Frame.reset w.dec;
        go ()
      | _ -> ()
    in
    go ()
  in
  let rec go () =
    match Unix.read w.fd buf 0 (Bytes.length buf) with
    | 0 ->
      w.eof <- true;
      handle ()
    | n -> (
      Frame.feed w.dec buf n;
      handle ();
      match Frame.state w.dec with Frame.Awaiting -> go () | _ -> ())
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      handle ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* decide a worker's fate from its decoder + exit status; [None] = still
   running. Consumes the process (kill/reap/close) when decided. *)
let poll (w : 'a running) : 'a completion option =
  match Frame.state w.dec with
  | Frame.Got payload ->
    kill_quiet w.pid;
    ignore (reap w.pid : Unix.process_status);
    consume_fds w;
    Some
      (match (Marshal.from_string payload 0 : 'a reply) with
      | Value v -> C_value v
      | Oom_reply -> C_oom
      | Exn_reply m -> C_exn m
      | exception e -> C_garbled ("unmarshal: " ^ Printexc.to_string e))
  | Frame.Failed e ->
    kill_quiet w.pid;
    ignore (reap w.pid : Unix.process_status);
    consume_fds w;
    Some (C_garbled (Frame.error_to_string e))
  | Frame.Awaiting ->
    if not w.eof then None
    else begin
      let st = reap w.pid in
      consume_fds w;
      Some
        (match st with
        | Unix.WSIGNALED s -> C_crashed s
        | Unix.WEXITED _ | Unix.WSTOPPED _ ->
          if Frame.bytes_received w.dec = 0 then
            C_garbled "worker exited without a reply frame"
          else C_garbled "reply frame truncated at worker exit")
    end

(* encoded share frames stay comfortably under PIPE_BUF (4096), so a single
   nonblocking [write] is all-or-nothing — never a torn frame *)
let relay_batch = 16

(* The supervision loop. [next] hands out tasks (or says how long until one
   becomes ready — retry backoff); [on_done] classifies each completion and
   may stop the whole pool (first-certified-wins). Single-threaded,
   select-driven; EINTR (a signal arrived) just re-enters the loop so the
   caller's [should_stop] flag is honoured promptly.

   Clause relay: share frames a worker writes before its final reply are
   broadcast to every other live worker that has an import pipe. The relay
   is best-effort and bounded — duplicate clauses (by sorted literal set)
   are dropped, frames are written with one atomic nonblocking write and
   dropped on EAGAIN, and a worker spawned later simply misses earlier
   traffic. Soundness never depends on delivery: every receiver re-derives
   each candidate through its own RUP gate. *)
let run_pool ~jobs ~should_stop ~next ~on_done () =
  Frame.ignore_sigpipe ();
  let running : 'a running list ref = ref [] in
  let stop_all = ref false in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let fresh_clause c =
    let key = String.concat "," (List.map string_of_int (List.sort compare c)) in
    if Hashtbl.mem seen key then false
    else begin
      if Hashtbl.length seen >= 65536 then Hashtbl.reset seen;
      Hashtbl.add seen key ();
      true
    end
  in
  let send_batch fd batch =
    let s = Frame.encode (Frame.encode_share batch) in
    let b = Bytes.of_string s in
    match Unix.write fd b 0 (Bytes.length b) with
    | _ -> ()
    | exception Unix.Unix_error _ -> ()  (* full or dead channel: drop *)
  in
  let on_share sender clauses =
    let fresh =
      List.filter
        (fun c ->
          let n = List.length c in
          n > 0 && n <= 8 && fresh_clause c)
        clauses
    in
    if fresh <> [] then begin
      let rec batches acc cur n = function
        | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
        | c :: rest ->
          if n >= relay_batch then batches (List.rev cur :: acc) [ c ] 1 rest
          else batches acc (c :: cur) (n + 1) rest
      in
      let bs = batches [] [] 0 fresh in
      List.iter
        (fun peer ->
          if peer.pid <> sender.pid then
            match peer.import_w with
            | Some fd -> List.iter (send_batch fd) bs
            | None -> ())
        !running
    end
  in
  let finish w comp =
    running := List.filter (fun x -> x.pid <> w.pid) !running;
    let wall = Colib_clock.Mclock.now () -. w.started in
    match on_done w.task comp ~wall with
    | `Continue -> ()
    | `Stop_all -> stop_all := true
  in
  let cancel_all () =
    let ws = !running in
    running := [];
    List.iter (fun w -> kill_quiet w.pid) ws;
    List.iter
      (fun w ->
        ignore (reap w.pid : Unix.process_status);
        consume_fds w;
        let wall = Colib_clock.Mclock.now () -. w.started in
        ignore (on_done w.task C_cancelled ~wall))
      ws
  in
  let rec loop () =
    if should_stop () || !stop_all then cancel_all ()
    else begin
      let idle = ref None in
      while !idle = None && List.length !running < jobs do
        match next ~now:(Colib_clock.Mclock.now ()) with
        | `Task t ->
          let sibling_fds =
            List.concat_map
              (fun w -> w.fd :: Option.to_list w.import_w)
              !running
          in
          running := spawn ~sibling_fds t :: !running
        | (`Wait _ | `Done) as x -> idle := Some x
      done;
      if !running = [] then begin
        match !idle with
        | Some (`Wait dt) ->
          Unix.sleepf (Float.max 0.01 (Float.min dt 0.25));
          loop ()
        | Some `Done | None -> ()
      end
      else begin
        let now = Colib_clock.Mclock.now () in
        let next_kill =
          List.fold_left (fun a w -> Float.min a w.kill_at) infinity !running
        in
        let timeout = Float.max 0.0 (Float.min 0.25 (next_kill -. now)) in
        let fds = List.map (fun w -> w.fd) !running in
        let readable, _, _ =
          try Unix.select fds [] [] timeout
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        List.iter
          (fun w ->
            if List.mem w.fd readable then begin
              drain ~on_share w;
              match poll w with Some c -> finish w c | None -> ()
            end)
          !running;
        let now = Colib_clock.Mclock.now () in
        List.iter
          (fun w ->
            if w.kill_at <= now then begin
              kill_quiet w.pid;
              ignore (reap w.pid : Unix.process_status);
              consume_fds w;
              finish w C_timed_out
            end)
          !running;
        loop ()
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Public taxonomy *)

type strategy =
  | Engine_strategy of Types.engine
  | Dsatur_strategy

let strategy_name = function
  | Engine_strategy e -> Types.engine_name e
  | Dsatur_strategy -> "DSATUR B&B"

let strategy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "pbs2" | "pbsii" | "pbs-ii" -> Ok (Engine_strategy Types.Pbs2)
  | "pbs" | "pbs1" -> Ok (Engine_strategy Types.Pbs1)
  | "galena" -> Ok (Engine_strategy Types.Galena)
  | "pueblo" -> Ok (Engine_strategy Types.Pueblo)
  | "cplex" | "bnb" -> Ok (Engine_strategy Types.Cplex)
  | "dsatur" -> Ok Dsatur_strategy
  | s ->
    Error
      (Printf.sprintf
         "unknown portfolio config %S (expected an engine name or dsatur)" s)

let strategies_of_string s =
  List.fold_right
    (fun tok acc ->
      match (strategy_of_string tok, acc) with
      | Ok x, Ok xs -> Ok (x :: xs)
      | (Error _ as e), _ -> e
      | _, (Error _ as e) -> e)
    (String.split_on_char ',' s)
    (Ok [])

type answer = {
  a_outcome : Flow.outcome;
  a_coloring : int array option;
  a_time : float;
  a_proof : Flow.proof_bundle option;
}

type worker_outcome =
  | Done of answer
  | Rejected of string
  | Crashed of int
  | Timed_out
  | Oom
  | Garbled of string
  | Failed of string
  | Cancelled

let signal_name s =
  if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigill then "SIGILL"
  else if s = Sys.sigfpe then "SIGFPE"
  else if s = Sys.sigpipe then "SIGPIPE"
  else Printf.sprintf "signal %d" s

let outcome_to_string = function
  | Done a -> (
    match a.a_outcome with
    | Flow.Optimal c -> Printf.sprintf "proved optimal %d" c
    | Flow.Best c -> Printf.sprintf "found %d colors (unproven)" c
    | Flow.No_coloring -> "proved infeasible"
    | Flow.Timed_out -> "completed with no contribution")
  | Rejected m -> "claim rejected: " ^ m
  | Crashed s -> "crashed: " ^ signal_name s
  | Timed_out -> "watchdog timeout"
  | Oom -> "out of memory"
  | Garbled m -> "garbled reply: " ^ m
  | Failed m -> "worker exception: " ^ m
  | Cancelled -> "cancelled"

type attempt = {
  strategy : strategy;
  seed : int;
  round : int;
  outcome : worker_outcome;
  wall_time : float;
}

type result = {
  outcome : Flow.outcome;
  coloring : int array option;
  winner : string option;
  attempts : attempt list;
  total_time : float;
  interrupted : bool;
  certificate : (unit, Certify.failure) Stdlib.result option;
}

(* one splitmix64 stream per run; spawn [index] takes the (index+1)-th
   draw, so seeds are reproducible regardless of scheduling order *)
let worker_seed ~run_seed ~index =
  let t = Prng.create run_seed in
  let s = ref 0L in
  for _ = 0 to index do
    s := Prng.next_int64 t
  done;
  Int64.to_int (Int64.logand !s 0x3FFFFFFFFFFFFFFFL)

(* ------------------------------------------------------------------ *)
(* The race *)

let attempt_answer g ~k ~sbp ~instance_dependent ~timeout ?checkpoint
    ?checkpoint_label ?share = function
  | Engine_strategy e ->
    let cfg =
      Flow.config ~engine:e ~sbp ~instance_dependent ~timeout ~fallback:[]
        ~proof:true ?checkpoint ?checkpoint_label ?share ~k ()
    in
    let r = Flow.run g cfg in
    {
      a_outcome = r.Flow.outcome;
      a_coloring = r.Flow.coloring;
      a_time = r.Flow.solve_time;
      a_proof = r.Flow.proof;
    }
  | Dsatur_strategy -> (
    let t0 = Colib_clock.Mclock.now () in
    let out = Exact_dsatur.solve ~deadline:(t0 +. timeout) g in
    let dt = Colib_clock.Mclock.now () -. t0 in
    match out with
    | Exact_dsatur.Exact (chi, col) ->
      if chi <= k then
        { a_outcome = Flow.Optimal chi; a_coloring = Some col; a_time = dt;
          a_proof = None }
      else
        { a_outcome = Flow.No_coloring; a_coloring = None; a_time = dt;
          a_proof = None }
    | Exact_dsatur.Bounds (_, hi, col, _) ->
      if hi <= k then
        { a_outcome = Flow.Best hi; a_coloring = Some col; a_time = dt;
          a_proof = None }
      else
        { a_outcome = Flow.Timed_out; a_coloring = None; a_time = dt;
          a_proof = None })

type queue_item = {
  spec_index : int;
  round : int;
  ready_at : float;
  warm : bool;  (* resume this spec's snapshot instead of starting cold *)
}

let solve ?jobs ?(retries = 1) ?(backoff = 0.1) ?(backoff_cap = 2.0)
    ?(grace = 2.0) ?mem_limit_mb ?(seed = 0) ?(sbp = Sbp.No_sbp)
    ?(instance_dependent = true) ?(timeout = 10.0) ?(share_clauses = true)
    ?(chaos = Chaos.process_scripted []) ?(should_stop = fun () -> false)
    ?checkpoint ?(checkpoint_label = "portfolio") ?journal g ~k specs =
  let specs_a = Array.of_list specs in
  let nspecs = Array.length specs_a in
  if nspecs = 0 then invalid_arg "Portfolio.solve: empty portfolio";
  let jobs = match jobs with Some j -> max 1 j | None -> nspecs in
  let t0 = Colib_clock.Mclock.now () in
  (* first-round workers resume only if the caller asked for it (a restarted
     run picking up its own snapshots); warm retries always resume *)
  let initial_warm =
    match checkpoint with
    | Some ck -> ck.Checkpoint.resume
    | None -> false
  in
  let pending =
    ref
      (List.init nspecs (fun i ->
           { spec_index = i; round = 0; ready_at = 0.0; warm = initial_warm }))
  in
  let spawned = ref 0 in
  let meta : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let attempts = ref [] in
  (* best parent-certified coloring seen so far *)
  let best = ref None in
  let winner = ref None in
  let interrupted = ref false in
  let should_stop () =
    let s = should_stop () in
    if s then interrupted := true;
    s
  in
  (* Replay an engine worker's settling proof against the parent's own
     deterministically rebuilt formula. The worker's copy of the formula is
     never trusted: a compromised worker could ship a weakened formula whose
     refutation proves nothing about the instance. *)
  let proof_formula =
    lazy (Flow.encoded_formula g (Flow.config ~sbp ~instance_dependent ~k ()))
  in
  let replay_engine_claim (a : answer) expected =
    match a.a_proof with
    | None -> Error "engine claim arrived without a proof trace"
    | Some b ->
      if b.Flow.proof_claim <> expected then
        Error "proof claim does not match the reported outcome"
      else (
        match
          Rup.check_claim (Lazy.force proof_formula) expected
            (Proof.steps b.Flow.proof_trace)
        with
        | Ok _ -> Ok ()
        | Error f -> Error ("proof replay failed: " ^ Rup.failure_to_string f))
  in
  let next ~now =
    if !winner <> None then `Done
    else begin
      let ready, waiting =
        List.partition (fun it -> it.ready_at <= now) !pending
      in
      match ready with
      | [] ->
        if waiting = [] then `Done
        else
          let soonest =
            List.fold_left (fun a it -> Float.min a it.ready_at) infinity
              waiting
          in
          `Wait (Float.max 0.01 (soonest -. now))
      | it :: rest ->
        pending := rest @ waiting;
        let idx = !spawned in
        incr spawned;
        Hashtbl.replace meta idx (it.spec_index, it.round);
        let strategy = specs_a.(it.spec_index) in
        let worker_ck =
          Option.map
            (fun ck -> { ck with Checkpoint.resume = it.warm })
            checkpoint
        in
        `Task
          {
            key = idx;
            thunk =
              (fun ~share ->
                attempt_answer g ~k ~sbp ~instance_dependent ~timeout
                  ?checkpoint:worker_ck ~checkpoint_label ?share strategy);
            watchdog = timeout +. grace;
            fault = Chaos.process_fault_for chaos idx;
            seed = worker_seed ~run_seed:seed ~index:idx;
            mem_limit_mb;
            (* only engine workers speak the exchange; DSATUR searches the
               graph, not the formula *)
            wants_share =
              (share_clauses
              && match strategy with
                 | Engine_strategy _ -> true
                 | Dsatur_strategy -> false);
          }
    end
  in
  let on_done task comp ~wall =
    let spec_index, round =
      match Hashtbl.find_opt meta task.key with Some m -> m | None -> (0, 0)
    in
    let strategy = specs_a.(spec_index) in
    let record outcome =
      attempts :=
        { strategy; seed = task.seed; round; outcome; wall_time = wall }
        :: !attempts
    in
    (* a transient failure gets another chance on a rotated configuration —
       a persistently-crashing engine must not monopolize its slot *)
    let retry () =
      if round < retries && !winner = None then begin
        let delay =
          Float.min backoff_cap (backoff *. (2.0 ** float_of_int round))
        in
        pending :=
          !pending
          @ [
              {
                spec_index = (spec_index + 1) mod nspecs;
                round = round + 1;
                ready_at = Colib_clock.Mclock.now () +. delay;
                warm = false;
              };
            ]
      end
    in
    let journal_event fields =
      match journal with None -> () | Some j -> Journal.append j fields
    in
    (* Warm-resume policy: a crashed/OOM-killed/hung engine worker whose
       snapshot structurally reads back is requeued on the SAME strategy
       with resume on, instead of rotating cold — the dead worker's search
       effort is not thrown away. The parent checks structure only (it has
       no formula to validate the digest against); the worker's own resume
       path re-validates identity and silently degrades to a cold start if
       the snapshot lies. Corrupt snapshots are classified in the journal
       and fall back to the cold rotation. Either way the resumed claim is
       re-certified and its stitched proof replayed like any other. *)
    let retry_warm ~why =
      match (checkpoint, strategy) with
      | Some ck, Engine_strategy e when round < retries && !winner = None -> (
        let path =
          Checkpoint.snapshot_path ~dir:ck.Checkpoint.dir
            ~label:checkpoint_label ~engine:(Types.engine_name e) ~k
        in
        let jkey what =
          (* journal key per (strategy, round): a re-loaded journal shows
             the full resume/corruption history of the run *)
          [
            ("key", Printf.sprintf "%s.%s.r%d" what (Types.engine_name e) round);
            ("event", what);
            ("strategy", strategy_name strategy);
            ("round", string_of_int round);
            ("why", why);
          ]
        in
        match Checkpoint.read path with
        | Ok sn ->
          journal_event
            (jkey "resume"
            @ [
                ( "conflicts",
                  string_of_int sn.Checkpoint.sn_engine.Types.sv_conflicts );
              ]);
          let delay =
            Float.min backoff_cap (backoff *. (2.0 ** float_of_int round))
          in
          pending :=
            !pending
            @ [
                {
                  spec_index;
                  round = round + 1;
                  ready_at = Colib_clock.Mclock.now () +. delay;
                  warm = true;
                };
              ];
          true
        | Error Checkpoint.Missing -> false
        | Error err ->
          journal_event
            (jkey "snapshot-corrupt"
            @ [ ("reason", Checkpoint.read_error_to_string err) ]);
          false)
      | _ -> false
    in
    match comp with
    | C_value a -> (
      match (a.a_outcome, a.a_coloring) with
      | (Flow.Optimal c | Flow.Best c), Some col -> (
        let contradicted =
          match (a.a_outcome, !best) with
          | Flow.Optimal _, Some (_, c') -> c' < c
          | _ -> false
        in
        if contradicted then begin
          record
            (Rejected "optimality claim contradicts a better certified \
                       coloring");
          retry ();
          `Continue
        end
        else
          match Certify.coloring g ~k ~claimed:c col with
          | Ok () -> (
            (match !best with
            | Some (_, c') when c' <= c -> ()
            | _ -> best := Some (col, c));
            match a.a_outcome with
            | Flow.Optimal _ -> (
              (* the coloring certifies, but optimality is a universal claim:
                 engine workers must additionally hand over a RUP trace that
                 replays against the parent's formula. DSATUR claims keep the
                 coloring-certification path — graph-level search produces no
                 formula proof. *)
              let proved =
                match strategy with
                | Dsatur_strategy -> Ok ()
                | Engine_strategy _ ->
                  replay_engine_claim a (Proof.Optimal_claim c)
              in
              match proved with
              | Ok () ->
                record (Done a);
                winner := Some (strategy_name strategy, a);
                `Stop_all
              | Error m ->
                record (Rejected m);
                retry ();
                `Continue)
            | _ ->
              record (Done a);
              `Continue)
          | Error f ->
            record (Rejected (Certify.failure_to_string f));
            retry ();
            `Continue)
      | (Flow.Optimal _ | Flow.Best _), None ->
        record (Rejected "claimed a coloring it did not return");
        retry ();
        `Continue
      | Flow.No_coloring, _ ->
        if !best <> None then begin
          record
            (Rejected "infeasibility claim contradicts a certified coloring");
          retry ();
          `Continue
        end
        else begin
          let proved =
            match strategy with
            | Dsatur_strategy -> Ok ()
            | Engine_strategy _ -> replay_engine_claim a Proof.Unsat_claim
          in
          match proved with
          | Ok () ->
            record (Done a);
            winner := Some (strategy_name strategy, a);
            `Stop_all
          | Error m ->
            record (Rejected m);
            retry ();
            `Continue
        end
      | Flow.Timed_out, _ ->
        record (Done a);
        `Continue)
    | C_oom ->
      record Oom;
      if not (retry_warm ~why:"out of memory") then retry ();
      `Continue
    | C_exn m ->
      record (Failed m);
      retry ();
      `Continue
    | C_crashed s ->
      record (Crashed s);
      if not (retry_warm ~why:(signal_name s)) then retry ();
      `Continue
    | C_timed_out ->
      (* cold-retrying a deterministic budget would just burn the same wall
         clock again — but a warm resume continues where the watchdog shot
         the worker, so with checkpointing on the time was not wasted *)
      record Timed_out;
      ignore (retry_warm ~why:"watchdog timeout" : bool);
      `Continue
    | C_garbled m ->
      record (Garbled m);
      retry ();
      `Continue
    | C_cancelled ->
      record Cancelled;
      `Continue
  in
  run_pool ~jobs ~should_stop ~next ~on_done ();
  let outcome, coloring =
    match !winner with
    | Some (_, a) -> (
      match a.a_outcome with
      | Flow.No_coloring -> (Flow.No_coloring, None)
      | o -> (o, a.a_coloring))
    | None -> (
      match !best with
      | Some (col, c) -> (Flow.Best c, Some col)
      | None -> (Flow.Timed_out, None))
  in
  let certificate =
    match (coloring, outcome) with
    | Some col, (Flow.Optimal c | Flow.Best c) ->
      Some (Certify.coloring g ~k ~claimed:c col)
    | Some col, _ -> Some (Certify.coloring g ~k ~claimed:k col)
    | None, _ -> None
  in
  {
    outcome;
    coloring;
    winner = Option.map fst !winner;
    attempts = List.rev !attempts;
    total_time = Colib_clock.Mclock.now () -. t0;
    interrupted = !interrupted;
    certificate;
  }

(* ------------------------------------------------------------------ *)
(* Generic supervised fan-out *)

let map ?(jobs = 4) ?(watchdog = 600.0) ?mem_limit_mb
    ?(should_stop = fun () -> false) ?(on_result = fun _ _ -> ()) f items =
  let arr = Array.of_list items in
  let nitems = Array.length arr in
  let results = Array.make nitems (Error "not run") in
  let next_i = ref 0 in
  let next ~now:_ =
    if !next_i >= nitems then `Done
    else begin
      let i = !next_i in
      incr next_i;
      `Task
        {
          key = i;
          thunk = (fun ~share:_ -> f arr.(i));
          watchdog;
          fault = None;
          seed = 0;
          mem_limit_mb;
          wants_share = false;
        }
    end
  in
  let on_done task comp ~wall:_ =
    let r =
      match comp with
      | C_value v -> Ok v
      | C_oom -> Error "out of memory"
      | C_exn m -> Error ("worker exception: " ^ m)
      | C_crashed s -> Error ("killed by " ^ signal_name s)
      | C_timed_out -> Error "watchdog timeout"
      | C_garbled m -> Error ("garbled reply: " ^ m)
      | C_cancelled -> Error "cancelled"
    in
    results.(task.key) <- r;
    on_result task.key r;
    `Continue
  in
  run_pool ~jobs:(max 1 jobs) ~should_stop ~next ~on_done ();
  results
