(* Chaos and robustness suite: the Supervisor retry/heal/degrade ladder
   under seeded fault plans, checkpoint round-trips and staleness, the
   kill-at-checkpoint -> resume bit-identity property, atomic writes
   under injected failures, and the RTLB_CHAOS plan syntax.

   Every test arms its own plan and disarms in a Fun.protect finaliser,
   so plans never leak across tests (disarm also resets the
   Pool.For_testing hooks). *)

open Helpers
module Pool = Rtlb_par.Pool
module Chaos = Rtlb_par.Chaos
module Supervisor = Rtlb_par.Supervisor
module Tracer = Rtlb_obs.Tracer

let test_jobs = max 4 (Pool.default_jobs ())
let paper = Rtlb.Paper_example.app

let with_chaos plan f =
  Chaos.arm plan;
  Fun.protect ~finally:Chaos.disarm f

(* Small backoffs so retry rounds don't busy-wait for milliseconds. *)
let fast_policy =
  {
    Supervisor.default_policy with
    Supervisor.backoff_ns = 1_000L;
    max_backoff_ns = 4_000L;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rm path = try Sys.remove path with Sys_error _ -> ()

let with_temp_file f =
  let path = Filename.temp_file "rtlb_chaos" ".json" in
  rm path;
  (* tests exercise the fresh-run (no file) path first *)
  Fun.protect ~finally:(fun () -> rm path) (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let none_count out =
  Array.fold_left (fun a -> function None -> a + 1 | Some _ -> a) 0 out

let supervisor_identity () =
  let input = Array.init 300 Fun.id in
  let want = Array.map (fun i -> Some ((i * i) + 1)) input in
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      let results, o =
        Supervisor.supervise ~pool (fun i -> (i * i) + 1) input
      in
      check_bool "fault-free run is `Complete" true
        (o.Supervisor.o_status = `Complete);
      check_bool "fault-free run at Full level" true
        (o.Supervisor.o_level = Supervisor.Full);
      check_int "no retries" 0 o.Supervisor.o_retries;
      check_int "no restarts" 0 o.Supervisor.o_restarts;
      check_int "no drops" 0 o.Supervisor.o_dropped;
      check_bool "bit-identical to a plain map" true (results = want));
  (* without a pool: sequential execution is not degradation *)
  let results, o = Supervisor.supervise (fun i -> (i * i) + 1) input in
  check_bool "pool-less run is `Complete at Full" true
    (o.Supervisor.o_status = `Complete && o.Supervisor.o_level = Supervisor.Full);
  check_bool "pool-less run bit-identical" true (results = want)

let supervisor_transient_retry () =
  (* A fault that fires twice at job index 7: both executions are
     re-done, the run converges to `Complete, and the retry accounting
     covers every transient fire. *)
  with_chaos
    { Chaos.seed = 0; faults = [ Chaos.Raise_at { index = 7; times = 2 } ] }
    (fun () ->
      Pool.with_pool ~jobs:test_jobs (fun pool ->
          let input = Array.init 300 Fun.id in
          let tracer = Tracer.make () in
          let results, o =
            Supervisor.supervise ~policy:fast_policy ~pool ~tracer
              (fun i -> i * 3)
              input
          in
          check_int "both shots fired" 2 (Chaos.fired_transient ());
          check_bool "transients retried to `Complete" true
            (o.Supervisor.o_status = `Complete);
          check_bool "retries cover the transient fires" true
            (o.Supervisor.o_retries >= 2);
          check_int "Retries counter matches the outcome"
            o.Supervisor.o_retries
            (Tracer.counter tracer Tracer.Retries);
          check_int "each fire recorded as a worker error" 2
            (Tracer.counter tracer Tracer.Worker_errors);
          check_bool "bit-identical despite the faults" true
            (results = Array.map (fun i -> Some (i * 3)) input)))

let supervisor_worker_kill_heals () =
  (* A worker dies mid-run (or the submitter absorbs the abort — it
     never dies); either way the run converges to `Complete with the
     pool back at full size and the killed execution redone. *)
  with_chaos
    { Chaos.seed = 0; faults = [ Chaos.Kill_worker_at { index = 5 } ] }
    (fun () ->
      Pool.with_pool ~jobs:test_jobs (fun pool ->
          let before = Pool.size pool in
          let input = Array.init 300 Fun.id in
          let tracer = Tracer.make () in
          let results, o =
            Supervisor.supervise ~policy:fast_policy ~pool ~tracer
              (fun i -> i + 100)
              input
          in
          check_int "the kill fired" 1 (Chaos.fired_worker_kills ());
          check_bool "healed run is `Complete" true
            (o.Supervisor.o_status = `Complete);
          check_bool "at most one respawn" true (o.Supervisor.o_restarts <= 1);
          check_int "Worker_restarts counter matches the outcome"
            o.Supervisor.o_restarts
            (Tracer.counter tracer Tracer.Worker_restarts);
          check_int "pool back at full size" before (Pool.size pool);
          check_int "no dead workers left" 0 (Pool.dead_workers pool);
          check_bool "killed execution was redone" true
            (o.Supervisor.o_retries >= 1);
          check_bool "bit-identical despite the death" true
            (results = Array.map (fun i -> Some (i + 100)) input)))

let supervisor_drops_poisoned_item () =
  (* A deterministic failure exhausts its per-item retry budget: the
     item is dropped (never retried forever), everything else is
     computed, and the outcome says exactly what was lost. *)
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      let policy = { fast_policy with Supervisor.max_item_retries = 1 } in
      let input = Array.init 64 Fun.id in
      let results, o =
        Supervisor.supervise ~policy ~pool
          (fun i -> if i = 13 then failwith "poisoned" else i * 2)
          input
      in
      check_bool "poisoned run is `Degraded" true
        (o.Supervisor.o_status = `Degraded);
      check_int "exactly one drop" 1 o.Supervisor.o_dropped;
      check_int "the drop was retried once" 1 o.Supervisor.o_retries;
      (match o.Supervisor.o_errors with
      | [ (13, msg) ] ->
          check_bool "the drop records its error" true
            (string_contains ~needle:"poisoned" msg)
      | _ -> Alcotest.fail "expected exactly the poisoned index in o_errors");
      check_bool "only the poisoned slot is empty" true
        (Array.for_all
           (fun i ->
             if i = 13 then results.(i) = None else results.(i) = Some (i * 2))
           input);
      check_bool "coverage accounts for the drop" true
        (Float.abs (Supervisor.coverage 64 o -. (63.0 /. 64.0)) < 1e-12))

let supervisor_deadline_is_partial () =
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      let results, o =
        Supervisor.supervise ~pool ~deadline_ns:(Pool.now_ns ()) Fun.id
          (Array.init 100 Fun.id)
      in
      check_bool "expired deadline is `Partial" true
        (o.Supervisor.o_status = `Partial);
      check_int "abandoned slots are not drops" 0 o.Supervisor.o_dropped;
      check_bool "unexecuted slots are None" true (none_count results > 0))

(* Any survived seeded plan yields either a `Complete run bit-identical
   to the fault-free map, or a well-formed `Degraded one: every
   non-dropped slot bit-identical, drops = empty slots = listed errors,
   coverage consistent.  Retry/restart counters agree with the tracer. *)
let check_seeded_plan seed =
  with_chaos (Chaos.plan_of_seed seed) (fun () ->
      (* the pool is created while the plan is armed, so Spawn_fail
         faults hit the spawn path *)
      Pool.with_pool ~jobs:test_jobs (fun pool ->
          let input = Array.init 300 Fun.id in
          let want i = (i * 7) + 1 in
          let tracer = Tracer.make () in
          let results, o =
            Supervisor.supervise ~policy:fast_policy ~pool ~tracer want input
          in
          let sp fmt = Printf.ksprintf (fun s -> s) fmt in
          check_int
            (sp "seed %d: Retries counter = outcome" seed)
            o.Supervisor.o_retries
            (Tracer.counter tracer Tracer.Retries);
          check_int
            (sp "seed %d: Worker_restarts counter = outcome" seed)
            o.Supervisor.o_restarts
            (Tracer.counter tracer Tracer.Worker_restarts);
          check_int
            (sp "seed %d: drops = listed errors" seed)
            o.Supervisor.o_dropped
            (List.length o.Supervisor.o_errors);
          match o.Supervisor.o_status with
          | `Partial ->
              Alcotest.failf "seed %d: `Partial without deadline or cancel"
                seed
          | `Complete ->
              check_bool
                (sp "seed %d: `Complete is bit-identical" seed)
                true
                (results = Array.map (fun i -> Some (want i)) input);
              check_int (sp "seed %d: `Complete has no drops" seed) 0
                o.Supervisor.o_dropped;
              check_bool
                (sp "seed %d: retries (%d) cover transient fires (%d)" seed
                   o.Supervisor.o_retries (Chaos.fired_transient ()))
                true
                (o.Supervisor.o_retries >= Chaos.fired_transient ())
          | `Degraded ->
              check_int
                (sp "seed %d: drops = empty slots" seed)
                o.Supervisor.o_dropped (none_count results);
              Array.iteri
                (fun i v ->
                  match v with
                  | None -> ()
                  | Some v ->
                      check_int
                        (sp "seed %d: surviving slot %d bit-identical" seed i)
                        (want i) v)
                results;
              check_bool
                (sp "seed %d: coverage consistent" seed)
                true
                (Float.abs
                   (Supervisor.coverage 300 o
                   -. (float_of_int (300 - o.Supervisor.o_dropped) /. 300.0))
                < 1e-12)))

let supervisor_seeded_plans () =
  List.iter check_seeded_plan [ 1; 2; 3; 4; 5; 6 ]

let supervisor_spawn_fail_plan () =
  (* All spawns fail: the pool degenerates to the submitting domain and
     the supervised map still completes (Full — the pool never had more). *)
  with_chaos
    { Chaos.seed = 0; faults = [ Chaos.Spawn_fail 64 ] }
    (fun () ->
      Pool.with_pool ~jobs:test_jobs (fun pool ->
          check_int "every spawn failed" 1 (Pool.size pool);
          let input = Array.init 100 Fun.id in
          let results, o =
            Supervisor.supervise ~policy:fast_policy ~pool (fun i -> i * 5)
              input
          in
          check_bool "degenerate pool still completes" true
            (o.Supervisor.o_status = `Complete);
          check_bool "bit-identical on the degenerate pool" true
            (results = Array.map (fun i -> Some (i * 5)) input)))

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

let checkpoint_roundtrip () =
  let open Rtfmt in
  let ck = Checkpoint.create ~kind:"test" ~fingerprint:"abc123" in
  let ck = Checkpoint.add ck ~key:"a" (Json.Int 1) in
  let ck = Checkpoint.add ck ~key:"b" (Json.Str "two") in
  let ck = Checkpoint.add ck ~key:"a" (Json.Int 3) in
  check_bool "add replaces and appends" true
    (Checkpoint.entries ck
    = [ ("b", Json.Str "two"); ("a", Json.Int 3) ]);
  check_bool "find returns the latest value" true
    (Checkpoint.find ck "a" = Some (Json.Int 3));
  check_bool "find on a missing key" true (Checkpoint.find ck "zzz" = None);
  (match Checkpoint.of_json (Checkpoint.to_json ck) with
  | Ok ck' ->
      check_string "kind round-trips" (Checkpoint.kind ck)
        (Checkpoint.kind ck');
      check_string "fingerprint round-trips" (Checkpoint.fingerprint ck)
        (Checkpoint.fingerprint ck');
      check_bool "entries round-trip in order" true
        (Checkpoint.entries ck = Checkpoint.entries ck')
  | Error e -> Alcotest.fail e);
  check_bool "validate accepts matching kind+fingerprint" true
    (Checkpoint.validate ~kind:"test" ~fingerprint:"abc123" ck = Ok ());
  (match Checkpoint.validate ~kind:"other" ~fingerprint:"abc123" ck with
  | Error e ->
      check_bool "kind mismatch reported" true
        (string_contains ~needle:"kind" e)
  | Ok () -> Alcotest.fail "kind mismatch accepted");
  (match Checkpoint.validate ~kind:"test" ~fingerprint:"deadbeef" ck with
  | Error e ->
      check_bool "stale fingerprint reported" true
        (string_contains ~needle:"fingerprint" e)
  | Ok () -> Alcotest.fail "stale fingerprint accepted")

let checkpoint_save_load () =
  let open Rtfmt in
  with_temp_file (fun path ->
      check_bool "no file reads as a fresh run" true
        (Checkpoint.load path = Ok None);
      let tracer = Tracer.make () in
      let ck = Checkpoint.create ~kind:"test" ~fingerprint:"fp" in
      let ck = Checkpoint.add ck ~key:"k" (Json.Int 42) in
      Checkpoint.save ~tracer path ck;
      check_int "save bumps Checkpoints_written" 1
        (Tracer.counter tracer Tracer.Checkpoints_written);
      (match Checkpoint.load path with
      | Ok (Some ck') ->
          check_bool "reloaded checkpoint identical" true
            (Checkpoint.kind ck' = "test"
            && Checkpoint.fingerprint ck' = "fp"
            && Checkpoint.entries ck' = [ ("k", Json.Int 42) ])
      | Ok None -> Alcotest.fail "saved checkpoint not found"
      | Error e -> Alcotest.fail e);
      Rtfmt.write_string_atomic path "{ not json";
      (match Checkpoint.load path with
      | Error e ->
          check_bool "corrupt file reported, not crashed" true
            (string_contains ~needle:"corrupt" e)
      | Ok _ -> Alcotest.fail "corrupt checkpoint accepted");
      Checkpoint.remove path;
      check_bool "removed checkpoint reads as fresh" true
        (Checkpoint.load path = Ok None))

let sample_json_roundtrip () =
  let samples =
    [
      {
        Rtlb.Sensitivity.s_factor = 0.1;
        s_feasible = true;
        s_bounds = [ ("r1", 3); ("r2", 0) ];
        s_shared_cost = Some 7;
        s_partial = false;
      };
      {
        Rtlb.Sensitivity.s_factor = 1.0 /. 3.0;
        s_feasible = false;
        s_bounds = [];
        s_shared_cost = None;
        s_partial = true;
      };
      {
        Rtlb.Sensitivity.s_factor = 2.5;
        s_feasible = true;
        s_bounds = [ ("bus", 12) ];
        s_shared_cost = Some 0;
        s_partial = false;
      };
    ]
  in
  List.iter
    (fun s ->
      match Rtfmt.Checkpoint.sample_of_json (Rtfmt.Checkpoint.sample_to_json s) with
      | Ok s' ->
          check_bool "sample round-trips exactly" true
            (s = s'
            && Int64.bits_of_float s.Rtlb.Sensitivity.s_factor
               = Int64.bits_of_float s'.Rtlb.Sensitivity.s_factor)
      | Error e -> Alcotest.fail e)
    samples

(* ------------------------------------------------------------------ *)
(* Kill at checkpoint -> resume                                        *)
(* ------------------------------------------------------------------ *)

(* The CLI's persistence loop, distilled: save after every computed
   sample, consult the checkpoint before computing a factor. *)
let sweep_with_checkpoint ?tracer system app ~factors ~path =
  let fingerprint = Rtlb.Incremental.instance_fingerprint system app in
  let loaded =
    match Rtfmt.Checkpoint.load path with
    | Ok (Some ck)
      when Rtfmt.Checkpoint.validate ~kind:"test-sweep" ~fingerprint ck = Ok ()
      ->
        ck
    | _ -> Rtfmt.Checkpoint.create ~kind:"test-sweep" ~fingerprint
  in
  let state = ref loaded in
  let resume factor =
    match Rtfmt.Checkpoint.find !state (Rtfmt.Checkpoint.factor_key factor) with
    | None -> None
    | Some j -> (
        match Rtfmt.Checkpoint.sample_of_json j with
        | Ok s -> Some s
        | Error _ -> None)
  in
  let on_sample (s : Rtlb.Sensitivity.sample) =
    if not s.Rtlb.Sensitivity.s_partial then begin
      state :=
        Rtfmt.Checkpoint.add !state
          ~key:(Rtfmt.Checkpoint.factor_key s.Rtlb.Sensitivity.s_factor)
          (Rtfmt.Checkpoint.sample_to_json s);
      Rtfmt.Checkpoint.save ?tracer path !state
    end
  in
  Rtlb.Sensitivity.deadline_sweep ?tracer ~on_sample ~resume system app
    ~factors

let factors = [ 0.5; 0.75; 1.0; 1.5; 2.0 ]

let kill_at_checkpoint_resume () =
  let system = Rtlb.Paper_example.shared in
  let reference = Rtlb.Sensitivity.deadline_sweep system paper ~factors in
  with_temp_file (fun path ->
      (* run 1: killed right after the 2nd durable checkpoint write *)
      with_chaos
        { Chaos.seed = 0; faults = [ Chaos.Kill_at_checkpoint 2 ] }
        (fun () ->
          match sweep_with_checkpoint system paper ~factors ~path with
          | _ -> Alcotest.fail "expected the simulated kill to fire"
          | exception Chaos.Killed -> ());
      (match Rtfmt.Checkpoint.load path with
      | Ok (Some ck) ->
          check_int "the kill left exactly the durable prefix" 2
            (List.length (Rtfmt.Checkpoint.entries ck))
      | Ok None -> Alcotest.fail "no checkpoint survived the kill"
      | Error e -> Alcotest.fail e);
      (* run 2: resumed, no chaos *)
      let tracer = Tracer.make () in
      let resumed = sweep_with_checkpoint ~tracer system paper ~factors ~path in
      check_int "both durable samples were resumed, not recomputed" 2
        (Tracer.counter tracer Tracer.Resumes);
      check_bool "resumed sweep bit-identical to uninterrupted" true
        (resumed = reference);
      (* a checkpoint for a different instance is stale, never reused *)
      let other = Rtlb.Sensitivity.scale_deadlines paper ~factor:3.0 in
      let tracer2 = Tracer.make () in
      let fresh = sweep_with_checkpoint ~tracer:tracer2 system other ~factors ~path in
      check_int "stale checkpoint resumed nothing" 0
        (Tracer.counter tracer2 Tracer.Resumes);
      check_bool "stale-checkpoint run recomputed from scratch" true
        (fresh = Rtlb.Sensitivity.deadline_sweep system other ~factors))

(* qcheck property: for random instances, a sweep killed at the 2nd
   checkpoint write and then resumed returns output bit-identical to an
   uninterrupted sweep of the same instance. *)
let kill_resume_prop =
  qtest ~count:25 "kill at checkpoint + resume is bit-identical"
    (arb_instance ~max_tasks:10 ())
    (fun i ->
      let system = shared_of i in
      let reference = Rtlb.Sensitivity.deadline_sweep system i.app ~factors in
      with_temp_file (fun path ->
          (match
             with_chaos
               { Chaos.seed = 0; faults = [ Chaos.Kill_at_checkpoint 2 ] }
               (fun () ->
                 match sweep_with_checkpoint system i.app ~factors ~path with
                 | _ -> `Survived
                 | exception Chaos.Killed -> `Killed)
           with
          | `Killed -> ()
          | `Survived -> failwith "the simulated kill did not fire");
          let resumed = sweep_with_checkpoint system i.app ~factors ~path in
          resumed = reference))

(* ------------------------------------------------------------------ *)
(* Atomic writes                                                       *)
(* ------------------------------------------------------------------ *)

let atomic_write_failure_keeps_destination () =
  with_temp_file (fun path ->
      Fun.protect ~finally:Rtfmt.Atomic_io.For_testing.reset (fun () ->
          Rtfmt.write_string_atomic path "first version";
          check_string "initial write lands" "first version" (read_file path);
          Rtfmt.Atomic_io.For_testing.fail_writes := 1;
          (try
             Rtfmt.write_string_atomic path "second version";
             Alcotest.fail "expected the injected write failure"
           with Sys_error e ->
             check_bool "failure names the temp file" true
               (string_contains ~needle:".tmp" e));
          check_string "destination untouched by the failed write"
            "first version" (read_file path);
          check_bool "temp file cleaned up" false
            (Sys.file_exists (path ^ ".tmp"));
          Rtfmt.write_string_atomic path "second version";
          check_string "subsequent write succeeds" "second version"
            (read_file path)))

(* ------------------------------------------------------------------ *)
(* Plan syntax and seeding                                             *)
(* ------------------------------------------------------------------ *)

let plan_syntax_roundtrip () =
  List.iter
    (fun faults ->
      let plan = { Chaos.seed = 0; faults } in
      let s = Chaos.to_string plan in
      match Chaos.parse s with
      | Ok p -> check_bool (s ^ " round-trips") true (p = plan)
      | Error e -> Alcotest.failf "parse %S failed: %s" s e)
    [
      [ Chaos.Spawn_fail 2 ];
      [ Chaos.Raise_at { index = 7; times = 1 } ];
      [ Chaos.Raise_at { index = 3; times = 4 } ];
      [ Chaos.Kill_worker_at { index = 9 } ];
      [ Chaos.Slow_at { index = 1; spins = 5000 } ];
      [ Chaos.Kill_at_checkpoint 3 ];
      [
        Chaos.Spawn_fail 1;
        Chaos.Raise_at { index = 0; times = 2 };
        Chaos.Kill_at_checkpoint 1;
      ];
      [ Chaos.Bad_frame_at { index = 4 } ];
      [ Chaos.Kill_request_at { index = 2 } ];
      [ Chaos.Slow_client_at { index = 6; ms = 15 } ];
      [
        Chaos.Bad_frame_at { index = 0 };
        Chaos.Kill_request_at { index = 1 };
        Chaos.Slow_client_at { index = 2; ms = 5 };
      ];
    ];
  (match Chaos.parse "seed=5" with
  | Ok p ->
      check_bool "seed=5 expands to plan_of_seed 5" true
        (p = Chaos.plan_of_seed 5)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Chaos.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected %S to be rejected" bad)
    [ ""; "bogus"; "raise@x"; "kill@"; "spawnfail=-1"; "raise@3x"; "seed=no" ]

let plan_syntax_strict () =
  (* Regression: the DSL used to route directive payloads through
     [int_of_string_opt], which accepts OCaml integer literals — so a
     typo like [kill@0x3] silently armed [kill@3] and [seed=1_0]
     silently became [seed=10] instead of being rejected.  Every
     malformed spelling must now fail with an error naming the bad
     token, and nothing may be silently dropped or reinterpreted. *)
  List.iter
    (fun (bad, token) ->
      match Chaos.parse bad with
      | Ok p ->
          Alcotest.failf "expected %S to be rejected, got %S" bad
            (Chaos.to_string p)
      | Error e ->
          check_bool
            (Printf.sprintf "error for %S names the token (%s)" bad e)
            true
            (string_contains ~needle:token e))
    [
      ("kill@0x3", "kill@0x3");
      ("slow@1:0x10", "slow@1:0x10");
      ("spawnfail=0b10", "spawnfail=0b10");
      ("seed=1_0", "seed=1_0");
      ("kill@+3", "kill@+3");
      ("raise@1,killl@2", "killl@2");
      ("badframe@0o7", "badframe@0o7");
      ("slowclient@2:1_0", "slowclient@2:1_0");
    ]

let seeded_plans_deterministic () =
  for seed = 0 to 20 do
    let a = Chaos.plan_of_seed seed and b = Chaos.plan_of_seed seed in
    check_bool (Printf.sprintf "seed %d deterministic" seed) true (a = b);
    let n = List.length a.Chaos.faults in
    check_bool
      (Printf.sprintf "seed %d has 1..3 faults" seed)
      true (n >= 1 && n <= 3)
  done;
  check_bool "consecutive seeds give different plans" true
    (List.exists
       (fun s -> Chaos.plan_of_seed s <> Chaos.plan_of_seed (s + 1))
       [ 1; 2; 3; 4; 5 ])

(* ------------------------------------------------------------------ *)
(* Chaos x the packed (SoA) engine                                     *)
(* ------------------------------------------------------------------ *)

(* Analysis.run runs on the packed engine, which shares the pool path,
   so the same faults must heal to the same bit-identical answers on a
   frame workload too (the daemon supervises requests exactly like
   this). *)

let soa_instance () =
  let app = Workload.Gen.layered_frames ~seed:5 ~frames:2 ~tasks_per_frame:20 () in
  (Workload.Gen.frame_system (), app)

let chaos_soa_transient_retry () =
  let system, app = soa_instance () in
  let reference = Rtlb.Analysis.run system app in
  with_chaos
    { Chaos.seed = 0; faults = [ Chaos.Raise_at { index = 0; times = 2 } ] }
    (fun () ->
      Pool.with_pool ~jobs:test_jobs (fun pool ->
          let results, o =
            Supervisor.supervise ~policy:fast_policy ~pool
              (fun () -> Rtlb.Analysis.run ~pool system app)
              [| () |]
          in
          check_int "both transient shots fired" 2 (Chaos.fired_transient ());
          check_bool "supervised SoA run converged" true
            (o.Supervisor.o_status = `Complete);
          check_bool "fault-surviving SoA run bit-identical to fault-free"
            true
            (results.(0) = Some reference)))

let chaos_soa_worker_kill_heals () =
  let system, app = soa_instance () in
  let reference = Rtlb.Analysis.run system app in
  (* the serve daemon's killreq path: the request body's worker dies at
     the start of the computation, the pool heals, the retry answers *)
  with_chaos
    { Chaos.seed = 0; faults = [ Chaos.Kill_request_at { index = 0 } ] }
    (fun () ->
      Pool.with_pool ~jobs:test_jobs (fun pool ->
          let results, o =
            Supervisor.supervise ~policy:fast_policy ~pool
              (fun () ->
                Chaos.on_request 0;
                Rtlb.Analysis.run ~pool system app)
              [| () |]
          in
          check_int "the kill fired" 1 (Chaos.fired_request_kills ());
          check_bool "healed SoA run converged" true
            (o.Supervisor.o_status = `Complete);
          check_int "no dead workers left" 0 (Pool.dead_workers pool);
          check_bool "healed SoA run bit-identical to fault-free" true
            (results.(0) = Some reference)))

let chaos_soa_degrades_exactly () =
  let system, app = soa_instance () in
  let reference = Rtlb.Analysis.run system app in
  (* no respawn budget: the ladder steps down instead of healing, and
     the answer must still be exact *)
  let policy = { fast_policy with Supervisor.max_restarts = 0 } in
  with_chaos
    { Chaos.seed = 0; faults = [ Chaos.Kill_request_at { index = 0 } ] }
    (fun () ->
      Pool.with_pool ~jobs:test_jobs (fun pool ->
          let results, o =
            Supervisor.supervise ~policy ~pool
              (fun () ->
                Chaos.on_request 0;
                Rtlb.Analysis.run ~pool system app)
              [| () |]
          in
          check_int "the kill fired" 1 (Chaos.fired_request_kills ());
          check_bool "ladder stepped below Full" true
            (o.Supervisor.o_level <> Supervisor.Full);
          check_bool "no slots dropped" true (none_count results = 0);
          check_bool "degraded SoA run bit-identical to fault-free" true
            (results.(0) = Some reference)))

let suite =
  [
    ( "chaos",
      [
        Alcotest.test_case "supervisor: fault-free identity" `Quick
          supervisor_identity;
        Alcotest.test_case "supervisor: transient fault retried" `Quick
          supervisor_transient_retry;
        Alcotest.test_case "supervisor: worker death healed" `Quick
          supervisor_worker_kill_heals;
        Alcotest.test_case "supervisor: poisoned item dropped" `Quick
          supervisor_drops_poisoned_item;
        Alcotest.test_case "supervisor: expired deadline is `Partial" `Quick
          supervisor_deadline_is_partial;
        Alcotest.test_case "supervisor: survives seeded plans 1-6" `Quick
          supervisor_seeded_plans;
        Alcotest.test_case "supervisor: total spawn failure" `Quick
          supervisor_spawn_fail_plan;
        Alcotest.test_case "checkpoint: json round-trip + staleness" `Quick
          checkpoint_roundtrip;
        Alcotest.test_case "checkpoint: save/load/corrupt/remove" `Quick
          checkpoint_save_load;
        Alcotest.test_case "checkpoint: sample payload round-trip" `Quick
          sample_json_roundtrip;
        Alcotest.test_case "kill at checkpoint, resume bit-identical" `Quick
          kill_at_checkpoint_resume;
        Alcotest.test_case "atomic write: injected failure is safe" `Quick
          atomic_write_failure_keeps_destination;
        Alcotest.test_case "RTLB_CHAOS syntax round-trips" `Quick
          plan_syntax_roundtrip;
        Alcotest.test_case "RTLB_CHAOS rejects malformed spellings" `Quick
          plan_syntax_strict;
        Alcotest.test_case "seeded plans are deterministic" `Quick
          seeded_plans_deterministic;
        Alcotest.test_case "soa engine: transient faults retried" `Quick
          chaos_soa_transient_retry;
        Alcotest.test_case "soa engine: worker death healed" `Quick
          chaos_soa_worker_kill_heals;
        Alcotest.test_case "soa engine: degraded ladder stays exact" `Quick
          chaos_soa_degrades_exactly;
        kill_resume_prop;
      ] );
  ]
