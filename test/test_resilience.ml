(* Crash-durability soak: the acceptance test for the process-level
   resilience layer.

   An 8-client seeded storm drives a REAL `rtlb serve --supervised`
   daemon — the actual CLI binary, launched as a separate process —
   whose environment arms a killserver chaos directive, so the serving
   child [_exit]s abruptly mid-storm and the watchdog restarts it over
   the inherited listening socket.  The Failover clients must complete
   the storm with every acknowledged reply delivered exactly once and
   byte-identical to a crash-free in-process run: the
   no-lost-acknowledged-reply invariant.

   The daemon must be a separate executable, not a [Unix.fork] of the
   test process: OCaml 5 forbids fork in any process that has ever
   spawned a domain, and earlier suites in the full test run exercise
   the domain pool.  Driving the shipped binary also makes the soak
   honest end to end — it covers the exact flag surface a deployment
   uses.

   Afterwards, warmth: a restart with the warm-state journal replays
   the storm's instances into the cache (journal_replays > 0) and the
   next analyze of a journaled instance builds nothing cold
   (cold_builds delta 0); the journal-disabled negative variant
   demonstrably serves cold (delta >= 1) — the journal is load-bearing,
   not decorative. *)

open Helpers
module Json = Rtfmt.Json
module Server = Rtlb_serve.Server
module Protocol = Rtlb_serve.Protocol
module Client = Rtlb_serve.Client
module Journal = Rtlb_serve.Journal
module Health = Rtlb_serve.Health
module Tracer = Rtlb_obs.Tracer

let paper_text = Rtfmt.Appfile.to_string Rtlb.Paper_example.app
let clients = 8
let requests_per_client = 6

(* The storm's frames, ids fixed so the crash run and the crash-free
   run are comparable request-for-request.  The retired "engine" field
   alternates between its two accepted values; both name the same
   instance, so the journal must end up holding exactly ONE entry. *)
let storm_frames client =
  List.init requests_per_client (fun r ->
      Json.Obj
        [
          ("id", Json.Str (Printf.sprintf "c%d-r%d" client r));
          ("op", Json.Str "analyze");
          ("app", Json.Str paper_text);
          ("engine", Json.Str (if (client + r) mod 2 = 0 then "record" else "soa"));
        ])

(* Deterministic reference: the same frames against an in-process
   crash-free server, rendered compactly (the same rendering both the
   socket path and the Failover client's parse+re-render go through). *)
let crash_free_replies () =
  let config =
    {
      Server.default_config with
      Server.workers = 2;
      jobs = 1;
      tracer = Tracer.make ();
    }
  in
  let t = Server.create ~config () in
  Fun.protect ~finally:(fun () -> Server.shutdown t) @@ fun () ->
  let table = Hashtbl.create 64 in
  for c = 0 to clients - 1 do
    List.iter
      (fun frame ->
        let line = Protocol.to_line frame in
        let m = Mutex.create () and cond = Condition.create () in
        let slot = ref None in
        Server.submit t line (fun reply ->
            Mutex.lock m;
            slot := Some reply;
            Condition.signal cond;
            Mutex.unlock m);
        Mutex.lock m;
        while !slot = None do
          Condition.wait cond m
        done;
        Mutex.unlock m;
        let raw = Option.get !slot in
        let id =
          match frame with
          | Json.Obj fields -> Option.get (List.assoc_opt "id" fields)
          | _ -> assert false
        in
        Hashtbl.replace table (Protocol.to_line id)
          (Protocol.to_line (Json.parse raw)))
      (storm_frames c)
  done;
  table

let wait_for pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let read_all path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in_noerr ic;
      s

(* Submit one frame on a workers:0 server and run it on this thread. *)
let request_inline t line =
  let slot = ref None in
  Server.submit t line (fun reply -> slot := Some reply);
  Server.run_pending t;
  match !slot with
  | Some reply -> reply
  | None -> Alcotest.fail "request never answered"

(* The built CLI binary, resolved relative to the test executable so
   the path holds under any cwd dune runs us from. *)
let rtlb_cli =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "rtlb_cli.exe"))

(* The storm through a supervised daemon whose serving child dies at
   admitted request #20 (of 48).  Each watchdog generation re-inherits
   the armed chaos budget (fork copy-on-write), so any generation that
   admits 20 requests dies too — more abrupt deaths, same invariants,
   and always fewer than the crash-loop threshold. *)
let soak ~with_journal () =
  let dir = Filename.temp_file "rtlb_soak" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "d.sock" in
  let journal_path = Filename.concat dir "journal" in
  let health_path = Filename.concat dir "health" in
  let wd_log = Filename.concat dir "wd.log" in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ sock; journal_path; health_path; wd_log ];
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* Launch the supervised daemon: the shipped binary, chaos armed via
     the environment, watchdog diagnostics captured on stderr. *)
  let argv =
    [ rtlb_cli; "serve"; "--supervised"; "--socket"; sock; "--health-file";
      health_path; "--workers"; "2"; "--jobs"; "1"; "--cache"; "8";
      "--max-crashes"; "5"; "--crash-window"; "60" ]
    @ (if with_journal then [ "--journal"; journal_path ] else [])
  in
  let env =
    Array.append
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"RTLB_CHAOS=" kv))
            (Array.to_list (Unix.environment ()))))
      [| "RTLB_CHAOS=killserver@20" |]
  in
  let log_fd =
    Unix.openfile wd_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let wd_pid =
    Unix.create_process_env rtlb_cli (Array.of_list argv) env Unix.stdin
      Unix.stdout log_fd
  in
  Unix.close log_fd;
  (* test process: the reference replies, then the storm *)
  let expected = crash_free_replies () in
  let client_tracer = Tracer.make () in
  let results = Array.make clients [] in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun c ->
            let conn =
              Client.Failover.connect ~tracer:client_tracer ~retry_for:10.0
                [ Unix.ADDR_UNIX sock ]
            in
            Fun.protect ~finally:(fun () -> Client.Failover.close conn)
            @@ fun () ->
            results.(c) <- Client.Failover.pipeline conn (storm_frames c))
          c)
  in
  List.iter Thread.join threads;
  (* every acknowledged reply, exactly once, byte-identical *)
  let answered = ref 0 in
  for c = 0 to clients - 1 do
    List.iteri
      (fun r result ->
        let id = Protocol.to_line (Json.Str (Printf.sprintf "c%d-r%d" c r)) in
        match result with
        | Error msg -> Alcotest.failf "lost reply for %s: %s" id msg
        | Ok reply ->
            incr answered;
            let got = Protocol.to_line reply in
            let want =
              match Hashtbl.find_opt expected id with
              | Some w -> w
              | None -> Alcotest.failf "no reference reply for %s" id
            in
            Alcotest.(check string)
              (Printf.sprintf "reply %s == crash-free run" id)
              want got)
      results.(c)
  done;
  check_int "every request answered" (clients * requests_per_client) !answered;
  check_bool "the endpoint never disappeared (no client gave up)" true
    (Array.for_all (fun rs -> List.length rs = requests_per_client) results);
  check_bool "health file reads ready after the restart" true
    (Health.read ~path:health_path = Some Health.Ready);
  (* drain: SIGTERM to the watchdog forwards to the child; exit 0 *)
  Unix.kill wd_pid Sys.sigterm;
  (match wait_for wd_pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "watchdog exited %d, wanted 0" n
  | _ -> Alcotest.fail "watchdog did not exit cleanly");
  let log = read_all wd_log in
  check_bool "the kill really fired: generation 1 was spawned" true
    (string_contains ~needle:"generation 1" log);
  check_bool "clients failed over (tracer)" true
    (Tracer.counter client_tracer Tracer.Failovers >= 1);
  (* ---- warmth after restart --------------------------------------- *)
  let tracer = Tracer.make () in
  let journal =
    if with_journal then Some (Journal.open_ ~capacity:16 journal_path)
    else None
  in
  let config =
    {
      Server.default_config with
      Server.workers = 0;
      jobs = 1;
      tracer;
      journal;
    }
  in
  let t = Server.create ~config () in
  Fun.protect ~finally:(fun () ->
      Server.shutdown t;
      Option.iter Journal.close journal)
  @@ fun () ->
  Server.run_pending t (* background rehydration, drained to completion *);
  let cold_before = Tracer.counter tracer Tracer.Cold_builds in
  let reply =
    request_inline t
      (Protocol.to_line
         (Json.Obj
            [ ("op", Json.Str "analyze"); ("app", Json.Str paper_text) ]))
  in
  check_bool "post-restart analyze succeeds" true
    (Json.member "ok" (Json.parse reply) = Json.Bool true);
  let cold_delta = Tracer.counter tracer Tracer.Cold_builds - cold_before in
  if with_journal then begin
    check_int "journal holds one instance for both engine tags" 1
      (Option.fold ~none:0 ~some:Journal.length journal);
    check_int "journal replay rebuilt the one instance" 1
      (Tracer.counter tracer Tracer.Journal_replays);
    check_int "journaled instance serves warm (no cold build)" 0 cold_delta
  end
  else begin
    check_int "no journal, no replays" 0
      (Tracer.counter tracer Tracer.Journal_replays);
    check_bool "journal disabled: the restart serves cold" true
      (cold_delta >= 1)
  end

let suite =
  [
    ( "resilience",
      [
        Alcotest.test_case
          "soak: watchdog + killserver, zero lost replies, journal warmth"
          `Slow (soak ~with_journal:true);
        Alcotest.test_case
          "soak negative: journal disabled loses warmth (cold restart)" `Slow
          (soak ~with_journal:false);
      ] );
  ]
