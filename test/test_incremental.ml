(* The incremental engine's contract is bit-identity: a query against a
   cached handle must equal a cold Analysis.run on the perturbed
   application in every value — windows, bounds (values, witnesses,
   partitions), cost and completeness — and both must equal the record
   oracle (Est_lct.compute + Lower_bound.for_resource).  The properties
   below drive random instances through random edit sequences, the
   sweep through random factor lists, and the budgeted path through an
   expired deadline, all against the cold reference and the oracle;
   units pin the dirty-cone and cache counters. *)

open Helpers

let analyses_identical (a : Rtlb.Analysis.t) (b : Rtlb.Analysis.t) =
  matches_oracle a
  && a.Rtlb.Analysis.windows.Rtlb.Est_lct.est
     = b.Rtlb.Analysis.windows.Rtlb.Est_lct.est
  && a.Rtlb.Analysis.windows.Rtlb.Est_lct.lct
     = b.Rtlb.Analysis.windows.Rtlb.Est_lct.lct
  && a.Rtlb.Analysis.bounds = b.Rtlb.Analysis.bounds
  && a.Rtlb.Analysis.cost = b.Rtlb.Analysis.cost
  && a.Rtlb.Analysis.completeness = b.Rtlb.Analysis.completeness

(* One random well-formed edit against the current application state:
   choosing each edit valid for the app accumulated so far keeps the
   whole left-to-right [apply] fold well-formed. *)
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

(* Random instances, random cumulative edit sequences: every query
   bit-identical to a cold run on the same perturbed application. *)
let edits_equal_cold =
  qtest ~count:100 "Incremental.query = cold Analysis.run under random edits"
    QCheck.(pair (arb_instance ~max_tasks:10 ()) small_int)
    (fun (i, salt) ->
      let system = shared_of i in
      let st = Random.State.make [| i.config.Workload.Gen.seed; salt |] in
      let handle = Rtlb.Incremental.create system i.app in
      assert (
        analyses_identical
          (Rtlb.Incremental.base handle)
          (Rtlb.Analysis.run system i.app));
      let rec go k edits =
        k = 0
        ||
        let edits = edits @ [ gen_edit st (Rtlb.Incremental.apply i.app edits) ] in
        let app' = Rtlb.Incremental.apply i.app edits in
        let q = Rtlb.Incremental.query handle app' in
        analyses_identical q (Rtlb.Analysis.run system app')
        && go (k - 1) edits
      in
      go (1 + (salt mod 4)) [])

(* The incremental sweep equals the per-factor cold sweep sample by
   sample (floats, bounds, costs, partial flags). *)
let sweep_equals_cold =
  let all_factors =
    [ 0.5; 0.77; 0.8; 0.9; 0.95; 1.0; 1.01; 1.1; 1.25; 1.5; 2.0; 3.3 ]
  in
  qtest ~count:60 "deadline_sweep = deadline_sweep_cold"
    QCheck.(pair (arb_instance ~max_tasks:10 ()) small_int)
    (fun (i, salt) ->
      let st = Random.State.make [| salt |] in
      let factors =
        List.filter (fun _ -> Random.State.bool st) all_factors
      in
      let factors = if factors = [] then [ 1.0 ] else factors in
      let system = shared_of i in
      Rtlb.Sensitivity.deadline_sweep system i.app ~factors
      = Rtlb.Sensitivity.deadline_sweep_cold system i.app ~factors)

(* A handle whose base ran under an expired budget has nothing cached;
   partial results must never poison later queries: an unbudgeted query
   on the same handle is still bit-identical to a cold run. *)
let partial_base_never_poisons () =
  let config =
    {
      Workload.Gen.default with
      Workload.Gen.shape = Workload.Gen.Layered { layers = 4; density = 0.5 };
      n_tasks = 18;
      seed = 7;
      resource_types = [ ("r1", 0.5) ];
    }
  in
  let app = Workload.Gen.generate config in
  let system = Workload.Gen.shared_system config in
  let expired = Int64.sub (Rtlb_par.Pool.now_ns ()) 1L in
  let handle = Rtlb.Incremental.create ~deadline_ns:expired system app in
  check_bool "expired base is partial" true
    (Rtlb.Analysis.is_partial (Rtlb.Incremental.base handle));
  check_int "expired base cached nothing" 0
    (Rtlb.Incremental.cached_blocks handle);
  let edits =
    [ Rtlb.Incremental.Set_deadline
        { task = 0; deadline = (Rtlb.App.task app 0).Rtlb.Task.deadline + 5 } ]
  in
  let app' = Rtlb.Incremental.apply app edits in
  let q1 = Rtlb.Incremental.query ~deadline_ns:expired handle app' in
  check_bool "budgeted query is partial" true (Rtlb.Analysis.is_partial q1);
  let q2 = Rtlb.Incremental.query handle app' in
  check_bool "unbudgeted query = cold run" true
    (analyses_identical q2 (Rtlb.Analysis.run system app'))

(* A chain 0 -> 1 -> 2 -> 3.  Editing the source's deadline dirties only
   the LCT of the source itself (its ancestor cone is a singleton), so
   the counter pins that zero EST recomputations happened; editing the
   sink's deadline dirties the whole ancestor chain. *)
let chain_app () =
  let task id deadline =
    Rtlb.Task.make ~id ~compute:2 ~deadline ~proc:"P1" ()
  in
  Rtlb.App.make
    ~tasks:[ task 0 10; task 1 20; task 2 30; task 3 40 ]
    ~edges:[ (0, 1, 1); (1, 2, 1); (2, 3, 1) ]

let cone_counter_pins_est_reuse () =
  let app = chain_app () in
  let system =
    Rtlb.System.shared_uniform ~resources:(Rtlb.App.resource_set app)
  in
  let handle = Rtlb.Incremental.create system app in
  let traced_cone edits =
    let tracer = Rtlb_obs.Tracer.make () in
    let analysis = Rtlb.Incremental.edit ~tracer handle edits in
    check_bool "edit = cold run" true
      (analyses_identical analysis
         (Rtlb.Analysis.run system
            (Rtlb.Incremental.apply app edits)));
    Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Cone_tasks
  in
  check_int "source deadline edit: 1 LCT recompute, 0 EST" 1
    (traced_cone [ Rtlb.Incremental.Set_deadline { task = 0; deadline = 12 } ]);
  check_int "sink deadline edit: whole ancestor chain" 4
    (traced_cone [ Rtlb.Incremental.Set_deadline { task = 3; deadline = 44 } ]);
  check_int "sink release edit: 1 EST recompute, 0 LCT" 1
    (traced_cone [ Rtlb.Incremental.Set_release { task = 3; release = 1 } ]);
  check_int "source compute edit: descendant EST cone plus itself" 5
    (traced_cone [ Rtlb.Incremental.Set_compute { task = 0; compute = 3 } ])

(* Re-issuing the same query must be served entirely from the cache: no
   Theta evaluations, only hits. *)
let repeat_query_hits_cache () =
  let config =
    { Workload.Gen.default with Workload.Gen.n_tasks = 12; seed = 11 }
  in
  let app = Workload.Gen.generate config in
  let system = Workload.Gen.shared_system config in
  let handle = Rtlb.Incremental.create system app in
  check_bool "base populated the cache" true
    (Rtlb.Incremental.cached_blocks handle > 0);
  let app' =
    Rtlb.Incremental.apply app
      [ Rtlb.Incremental.Set_deadline
          { task = 0; deadline = (Rtlb.App.task app 0).Rtlb.Task.deadline + 3 }
      ]
  in
  ignore (Rtlb.Incremental.query handle app');
  let tracer = Rtlb_obs.Tracer.make () in
  let q = Rtlb.Incremental.query ~tracer handle app' in
  check_int "repeat query scans nothing" 0
    (Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Theta_evals);
  check_bool "repeat query reuses blocks" true
    (Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Cache_hits > 0);
  check_bool "repeat query still = cold run" true
    (analyses_identical q (Rtlb.Analysis.run system app'))

let apply_validates () =
  let app = chain_app () in
  Alcotest.check_raises "task id out of range"
    (Invalid_argument "Incremental.apply: task 9 outside [0, 4)") (fun () ->
      ignore
        (Rtlb.Incremental.apply app
           [ Rtlb.Incremental.Set_deadline { task = 9; deadline = 5 } ]));
  check_bool "infeasible edit raises" true
    (match
       Rtlb.Incremental.apply app
         [ Rtlb.Incremental.Set_deadline { task = 0; deadline = 1 } ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Queries that change anything beyond release/compute/deadline fall
   back to a cold run and still answer correctly. *)
let reshape_falls_back () =
  let app = chain_app () in
  let system =
    Rtlb.System.shared_uniform ~resources:(Rtlb.App.resource_set app)
  in
  let handle = Rtlb.Incremental.create system app in
  let reshaped =
    Rtlb.App.map_tasks app ~f:(fun t ->
        if t.Rtlb.Task.id = 1 then Rtlb.Task.with_preemptive t true else t)
  in
  check_bool "preemptability change answered via cold path" true
    (analyses_identical
       (Rtlb.Incremental.query handle reshaped)
       (Rtlb.Analysis.run system reshaped))

(* Every production entry point against the record oracle, on both
   system models: the one-shot analysis, the validation window pass,
   and the incremental handle — its base, a same-shape edit, and a
   reshaping query that takes the cold fallback. *)
let production_equals_oracle =
  qtest ~count:100 "production entry points = record oracle (both models)"
    QCheck.(pair (arb_instance ~max_tasks:10 ()) small_int)
    (fun (i, salt) ->
      let st = Random.State.make [| i.config.Workload.Gen.seed; salt |] in
      let oracle_diags system =
        let w, _ = oracle_bounds system i.app in
        List.filter_map
          (fun (t : Rtlb.Task.t) ->
            let e = w.Rtlb.Est_lct.est.(t.Rtlb.Task.id)
            and l = w.Rtlb.Est_lct.lct.(t.Rtlb.Task.id)
            and c = t.Rtlb.Task.compute in
            if e + c > l then Some ("E102", t.Rtlb.Task.name)
            else if c > 0 && e + c = l then Some ("W203", t.Rtlb.Task.name)
            else None)
          (Array.to_list (Rtlb.App.tasks i.app))
      in
      let for_model system =
        let handle = Rtlb.Incremental.create system i.app in
        let edited =
          Rtlb.Incremental.edit handle [ gen_edit st i.app ]
        in
        let reshaped =
          Rtlb.App.map_tasks i.app ~f:(fun t ->
              if t.Rtlb.Task.id = 0 then
                Rtlb.Task.with_preemptive t (not t.Rtlb.Task.preemptive)
              else t)
        in
        matches_oracle (Rtlb.Analysis.run system i.app)
        && List.map
             (fun d -> (d.Rtlb.Validate.d_code, d.Rtlb.Validate.d_subject))
             (Rtlb.Validate.check_windows ~system i.app)
           = List.map (fun (c, n) -> (c, "task " ^ n)) (oracle_diags system)
        && matches_oracle (Rtlb.Incremental.base handle)
        && matches_oracle edited
        && matches_oracle (Rtlb.Incremental.query handle reshaped)
      in
      for_model (shared_of i) && for_model (dedicated_of i))

let suite =
  [
    ( "incremental",
      [
        edits_equal_cold;
        production_equals_oracle;
        sweep_equals_cold;
        Alcotest.test_case "partial base never poisons the cache" `Quick
          partial_base_never_poisons;
        Alcotest.test_case "cone counter pins EST/LCT reuse" `Quick
          cone_counter_pins_est_reuse;
        Alcotest.test_case "repeated query served from cache" `Quick
          repeat_query_hits_cache;
        Alcotest.test_case "apply validates edits" `Quick apply_validates;
        Alcotest.test_case "reshaped query falls back to cold run" `Quick
          reshape_falls_back;
      ] );
  ]
