(* The packed (structure-of-arrays) engine is the production engine
   behind Analysis.run.  Its contract is value-level bit-identity with
   the record test oracle (Est_lct.compute + Lower_bound.for_resource):
   windows (est/lct values), bounds (values, witnesses, partitions), cost
   and completeness must all match exactly — merge sets and traces are
   the one documented divergence (Soa leaves them empty).  The
   properties below assert that identity over random instances on both
   system models and through random incremental edits, round-trip the
   packed representation back to the application, and pin the pruned interval scan to the unpruned
   reference.  Units cover the paper example, the examples/ file, the
   frame-structured scaling workload, the domain-pool path and host
   masks wider than one word. *)

open Helpers

let bound_equal (a : Rtlb.Lower_bound.bound) (b : Rtlb.Lower_bound.bound) =
  a.Rtlb.Lower_bound.resource = b.Rtlb.Lower_bound.resource
  && a.Rtlb.Lower_bound.lb = b.Rtlb.Lower_bound.lb
  && a.Rtlb.Lower_bound.witness = b.Rtlb.Lower_bound.witness
  && a.Rtlb.Lower_bound.partition = b.Rtlb.Lower_bound.partition

(* Everything except merge sets and traces. *)
let values_identical (a : Rtlb.Analysis.t) (b : Rtlb.Analysis.t) =
  a.Rtlb.Analysis.windows.Rtlb.Est_lct.est
  = b.Rtlb.Analysis.windows.Rtlb.Est_lct.est
  && a.Rtlb.Analysis.windows.Rtlb.Est_lct.lct
     = b.Rtlb.Analysis.windows.Rtlb.Est_lct.lct
  && List.length a.Rtlb.Analysis.bounds = List.length b.Rtlb.Analysis.bounds
  && List.for_all2 bound_equal a.Rtlb.Analysis.bounds b.Rtlb.Analysis.bounds
  && a.Rtlb.Analysis.cost = b.Rtlb.Analysis.cost
  && a.Rtlb.Analysis.completeness = b.Rtlb.Analysis.completeness

let roundtrips system app =
  let packed = Rtlb.Soa.pack system app in
  Rtfmt.Appfile.to_string (Rtlb.Soa.unpack packed) = Rtfmt.Appfile.to_string app

(* --- pack -> unpack round-trip ------------------------------------- *)

let roundtrip_random =
  qtest "Soa.unpack (Soa.pack app) round-trips random instances"
    (arb_instance ())
    (fun i -> roundtrips (shared_of i) i.app && roundtrips (dedicated_of i) i.app)

let roundtrip_examples () =
  (* dune runtest runs in test/; dune exec runs in the workspace root. *)
  let path =
    List.find Sys.file_exists
      [ "../examples/paper_example.app"; "examples/paper_example.app" ]
  in
  let { Rtfmt.Appfile.app; system } = Rtfmt.Appfile.parse_file path in
  let system = Option.get system in
  check_bool "examples/paper_example.app round-trips" true (roundtrips system app);
  check_bool "built-in paper example round-trips (shared)" true
    (roundtrips Rtlb.Paper_example.shared Rtlb.Paper_example.app);
  check_bool "built-in paper example round-trips (dedicated)" true
    (roundtrips Rtlb.Paper_example.dedicated Rtlb.Paper_example.app)

(* --- engine identity ----------------------------------------------- *)

let analyze_identical =
  qtest "Analysis.run = record oracle on random instances" (arb_instance ())
    (fun i ->
      matches_oracle (Rtlb.Analysis.run (shared_of i) i.app)
      && matches_oracle (Rtlb.Analysis.run (dedicated_of i) i.app))

let paper_example_windows () =
  let a = Rtlb.Analysis.run Rtlb.Paper_example.shared Rtlb.Paper_example.app in
  Alcotest.(check (array int))
    "paper example est" Rtlb.Paper_example.expected_est
    a.Rtlb.Analysis.windows.Rtlb.Est_lct.est;
  Alcotest.(check (array int))
    "paper example lct" Rtlb.Paper_example.expected_lct_repaired
    a.Rtlb.Analysis.windows.Rtlb.Est_lct.lct;
  check_bool "paper example = record oracle" true (matches_oracle a)

(* A dedicated catalogue of 70 node types needs two host-mask words.
   Every task can run on a handful of types spread over both words, so
   the merge pools of the sweep cross the word boundary. *)
let wide_catalogue () =
  let n_types = 70 in
  let nodes =
    List.init n_types (fun k ->
        let proc = if k mod 2 = 0 then "P1" else "P2" in
        let provides =
          (if k mod 3 = 0 then [ ("r1", 1) ] else [])
          @ if k mod 5 = 0 then [ ("r2", 1) ] else []
        in
        Rtlb.System.node_type ~name:(Printf.sprintf "N%d" k) ~proc ~provides
          ~cost:(1 + (k mod 7)) ())
  in
  let system = Rtlb.System.dedicated nodes in
  let config =
    {
      Workload.Gen.default with
      Workload.Gen.seed = 5;
      n_tasks = 30;
      shape = Workload.Gen.Layered { layers = 4; density = 0.5 };
      proc_types = [ ("P1", 0.5); ("P2", 0.5) ];
      resource_types = [ ("r1", 0.4); ("r2", 0.3) ];
    }
  in
  let app = Workload.Gen.generate config in
  check_bool "system hosts every task" true
    (Rtlb.System.validate_for system app = Ok ());
  let a = Rtlb.Analysis.run system app in
  check_bool "70 node types: Analysis.run = record oracle" true
    (matches_oracle a);
  check_bool "70 node types: Validate.check_windows runs" true
    (not
       (List.exists
          (fun d -> d.Rtlb.Validate.d_code = "E103")
          (Rtlb.Validate.check_windows ~system app)))

(* --- dominance pruning ---------------------------------------------- *)

let pruned_equals_unpruned =
  qtest "pruned interval scan = unpruned reference" (arb_instance ())
    (fun i ->
      let bounds prune =
        let p = Rtlb.Soa.pack (shared_of i) i.app in
        Rtlb.Soa.compute_windows p;
        Rtlb.Soa.bounds ~prune p
      in
      bounds true = bounds false)

(* --- scaling workload ----------------------------------------------- *)

let frames_identical () =
  let app =
    Workload.Gen.layered_frames ~seed:7 ~frames:10 ~tasks_per_frame:100 ()
  in
  let system = Workload.Gen.frame_system () in
  check_int "frame workload size" 1000 (Rtlb.App.n_tasks app);
  check_bool "frame workload: Analysis.run = record oracle" true
    (matches_oracle (Rtlb.Analysis.run system app))

let frames_deterministic () =
  let a = Workload.Gen.layered_frames ~seed:3 ~frames:2 ~tasks_per_frame:40 () in
  let b = Workload.Gen.layered_frames ~seed:3 ~frames:2 ~tasks_per_frame:40 () in
  check_string "same seed, same app" (Rtfmt.Appfile.to_string a)
    (Rtfmt.Appfile.to_string b)

(* --- incremental engine over packed arrays --------------------------- *)

let gen_edit st app =
  let n = Rtlb.App.n_tasks app in
  let i = Random.State.int st n in
  let t = Rtlb.App.task app i in
  let release = t.Rtlb.Task.release
  and deadline = t.Rtlb.Task.deadline
  and compute = t.Rtlb.Task.compute in
  match Random.State.int st 3 with
  | 0 ->
      Rtlb.Incremental.Set_deadline
        { task = i; deadline = release + compute + Random.State.int st 21 }
  | 1 ->
      Rtlb.Incremental.Set_release
        { task = i; release = Random.State.int st (deadline - compute + 1) }
  | _ ->
      Rtlb.Incremental.Set_compute
        { task = i; compute = Random.State.int st (deadline - release + 1) }

(* The handle always runs on the packed engine; the test keeps the name
   it had when that engine was selected with ~engine:`Soa. *)
let incremental_soa_equals_cold =
  qtest ~count:100 "Incremental ~engine:`Soa = cold run under random edits"
    QCheck.(pair (arb_instance ~max_tasks:10 ()) small_int)
    (fun (i, salt) ->
      let system = shared_of i in
      let st = Random.State.make [| i.config.Workload.Gen.seed; salt |] in
      let handle = Rtlb.Incremental.create system i.app in
      assert (
        values_identical
          (Rtlb.Incremental.base handle)
          (Rtlb.Analysis.run system i.app));
      let rec go k edits =
        k = 0
        ||
        let edits =
          edits @ [ gen_edit st (Rtlb.Incremental.apply i.app edits) ]
        in
        let app' = Rtlb.Incremental.apply i.app edits in
        let q = Rtlb.Incremental.query handle app' in
        values_identical q (Rtlb.Analysis.run system app')
        && matches_oracle q
        && go (k - 1) edits
      in
      go (1 + (salt mod 4)) [])

(* --- domain-pool path ----------------------------------------------- *)

let pool_identical () =
  let app =
    Workload.Gen.layered_frames ~seed:11 ~frames:6 ~tasks_per_frame:50 ()
  in
  let system = Workload.Gen.frame_system () in
  let seq = Rtlb.Analysis.run system app in
  Rtlb_par.Pool.with_pool ~jobs:4 (fun pool ->
      let par = Rtlb.Analysis.run ~pool system app in
      check_bool "pool = sequential (pruned)" true (values_identical par seq);
      check_bool "pool = record oracle" true (matches_oracle par))

(* Serve runs several worker threads on one domain.  Threads preempt
   each other mid-scan, so each must use its own kernel scratch: two
   threads analysing different instances side by side must each get the
   sequential answer. *)
let threads_share_no_scratch () =
  let instance seed =
    let app =
      Workload.Gen.layered_frames ~seed ~frames:20 ~tasks_per_frame:100 ()
    in
    (app, Rtlb.Analysis.run (Workload.Gen.frame_system ()) app)
  in
  let a = instance 21 and b = instance 22 in
  let agree = Atomic.make true in
  let worker (app, reference) () =
    for _ = 1 to 30 do
      let r = Rtlb.Analysis.run (Workload.Gen.frame_system ()) app in
      if not (values_identical r reference) then Atomic.set agree false
    done
  in
  let threads = [ Thread.create (worker a) (); Thread.create (worker b) () ] in
  List.iter Thread.join threads;
  check_bool "concurrent threads = sequential" true (Atomic.get agree)

let suite =
  [
    ( "soa",
      [
        roundtrip_random;
        Alcotest.test_case "round-trip: examples" `Quick roundtrip_examples;
        analyze_identical;
        Alcotest.test_case "paper example windows" `Quick paper_example_windows;
        pruned_equals_unpruned;
        Alcotest.test_case "70 node types = record oracle" `Quick wide_catalogue;
        incremental_soa_equals_cold;
        Alcotest.test_case "frame workload identity" `Quick frames_identical;
        Alcotest.test_case "frame workload determinism" `Quick
          frames_deterministic;
        Alcotest.test_case "pool path identity" `Quick pool_identical;
        Alcotest.test_case "threads on one domain share no scratch" `Quick
          threads_share_no_scratch;
      ] );
  ]
