(* Tests for the Section 6 resource lower bounds, including the paper's
   Step 3 numbers and soundness against real schedules. *)

open Helpers

let paper = Rtlb.Paper_example.app
let windows = Rtlb.Est_lct.compute Rtlb.Paper_example.shared paper
let est = windows.Rtlb.Est_lct.est
let lct = windows.Rtlb.Est_lct.lct
let theta = Rtlb.Lower_bound.theta ~est ~lct paper

let paper_step3_bounds () =
  List.iter
    (fun (r, expected) ->
      let b = Rtlb.Lower_bound.for_resource ~est ~lct paper r in
      check_int ("LB_" ^ r) expected b.Rtlb.Lower_bound.lb)
    Rtlb.Paper_example.expected_bounds

let paper_step3_quotients () =
  let st_p1 = Rtlb.App.tasks_using paper "P1" in
  (* The quoted demands: Theta(P1,0,3) = 6 and Theta(P1,3,6) = 9.  (The
     paper also quotes Theta(P1,3,8) = 11 where the full Theorem 4 demand
     is 13 — task 5's tail overlap alpha(9-7) = 2 appears to have been
     dropped; both round up to the same ceil(./5) = 3.) *)
  check_int "Theta(P1,0,3)" 6 (theta st_p1 ~t1:0 ~t2:3);
  check_int "Theta(P1,3,6)" 9 (theta st_p1 ~t1:3 ~t2:6);
  check_int "Theta(P1,3,8)" 13 (theta st_p1 ~t1:3 ~t2:8);
  check_int "ceil 13/5 = ceil 11/5 = 3" 3 ((13 + 4) / 5)

let witness_is_consistent () =
  List.iter
    (fun r ->
      let b = Rtlb.Lower_bound.for_resource ~est ~lct paper r in
      match b.Rtlb.Lower_bound.witness with
      | None -> Alcotest.fail "expected witness"
      | Some w ->
          let tasks = Rtlb.App.tasks_using paper r in
          check_int
            ("witness demand recomputes for " ^ r)
            w.Rtlb.Lower_bound.w_theta
            (theta tasks ~t1:w.Rtlb.Lower_bound.w_t1 ~t2:w.Rtlb.Lower_bound.w_t2);
          let len = w.Rtlb.Lower_bound.w_t2 - w.Rtlb.Lower_bound.w_t1 in
          check_int
            ("witness attains the bound for " ^ r)
            b.Rtlb.Lower_bound.lb
            ((w.Rtlb.Lower_bound.w_theta + len - 1) / len))
    (Rtlb.App.resource_set paper)

let candidate_points () =
  let pts = Rtlb.Lower_bound.candidate_points ~est ~lct [ 0; 1 ] ~lo:0 ~hi:6 in
  (* tasks 1 and 2: E 0,0 L 3,6 *)
  check_int_list "points" [ 0; 3; 6 ] pts;
  let clipped = Rtlb.Lower_bound.candidate_points ~est ~lct [ 4 ] ~lo:0 ~hi:10 in
  (* task 5: E 6, L 15 -> 15 clipped away, boundaries kept *)
  check_int_list "clipping" [ 0; 6; 10 ] clipped

let unused_resource () =
  let b = Rtlb.Lower_bound.for_resource ~est ~lct paper "bogus" in
  check_int "unused resource LB = 0" 0 b.Rtlb.Lower_bound.lb;
  check_bool "no witness" true (b.Rtlb.Lower_bound.witness = None)

let all_in_res_order () =
  let bounds =
    (Rtlb.Analysis.run Rtlb.Paper_example.shared paper).Rtlb.Analysis.bounds
  in
  Alcotest.(check (list string))
    "RES order"
    [ "P1"; "P2"; "r1" ]
    (List.map (fun (b : Rtlb.Lower_bound.bound) -> b.Rtlb.Lower_bound.resource) bounds)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let bounds_of i system = (Rtlb.Analysis.run system i.app).Rtlb.Analysis.bounds

let prop_tests =
  [
    qtest ~count:200 "LB at least the average-load bound"
      (arb_instance ~max_tasks:14 ()) (fun i ->
        (* The interval [min E, max L] contains every window whole, so
           Theta there is the total work and LB_r >= ceil(W / span). *)
        let w = Rtlb.Est_lct.compute (shared_of i) i.app in
        let est = w.Rtlb.Est_lct.est and lct = w.Rtlb.Est_lct.lct in
        List.for_all
          (fun r ->
            let tasks = Rtlb.App.tasks_using i.app r in
            let work = Rtlb.App.total_work i.app r in
            let lo = List.fold_left (fun a t -> min a est.(t)) max_int tasks in
            let hi = List.fold_left (fun a t -> max a lct.(t)) min_int tasks in
            let b = Rtlb.Lower_bound.for_resource ~est ~lct i.app r in
            tasks = [] || hi <= lo
            || b.Rtlb.Lower_bound.lb >= (work + hi - lo - 1) / (hi - lo))
          (Rtlb.App.resource_set i.app));
    qtest ~count:200 "every used resource has LB >= 1"
      (arb_instance ~max_tasks:14 ()) (fun i ->
        List.for_all
          (fun (b : Rtlb.Lower_bound.bound) ->
            let tasks = Rtlb.App.tasks_using i.app b.Rtlb.Lower_bound.resource in
            let has_work =
              List.exists
                (fun t -> (Rtlb.App.task i.app t).Rtlb.Task.compute > 0)
                tasks
            in
            (not has_work) || b.Rtlb.Lower_bound.lb >= 1)
          (bounds_of i (shared_of i)));
    qtest ~count:60 "soundness: any feasible schedule uses >= LB_r units"
      (arb_instance ~max_tasks:10 ()) (fun i ->
        (* Schedule on a generous platform, then count, per resource, the
           peak number of simultaneously running users — LB_r may never
           exceed that. *)
        let system = shared_of i in
        let platform = Sched.Platform.generous system i.app in
        match Sched.List_scheduler.run i.app platform with
        | Error _ -> QCheck.assume_fail ()
        | Ok schedule ->
            (match Sched.Schedule.check i.app platform schedule with
            | Error _ -> false
            | Ok () ->
                let bounds = bounds_of i system in
                List.for_all
                  (fun (b : Rtlb.Lower_bound.bound) ->
                    let r = b.Rtlb.Lower_bound.resource in
                    let users = Rtlb.App.tasks_using i.app r in
                    (* peak concurrency of r users in this schedule *)
                    let events =
                      List.concat_map
                        (fun t ->
                          let e = schedule.(t) in
                          let f = Sched.Schedule.finish i.app e in
                          if e.Sched.Schedule.e_start = f then []
                          else
                            [ (e.Sched.Schedule.e_start, 1); (f, -1) ])
                        users
                      |> List.sort compare
                    in
                    let peak, _ =
                      List.fold_left
                        (fun (peak, cur) (_, d) ->
                          let cur = cur + d in
                          (max peak cur, cur))
                        (0, 0) events
                    in
                    b.Rtlb.Lower_bound.lb <= max peak 1
                    || b.Rtlb.Lower_bound.lb = 0)
                  bounds));
    qtest ~count:150 "preemptive relaxation never raises a bound"
      (arb_instance ~max_tasks:12 ()) (fun i ->
        let all_preemptive =
          Rtlb.App.map_tasks i.app ~f:(fun t -> Rtlb.Task.with_preemptive t true)
        in
        let b1 = bounds_of { i with app = all_preemptive } (shared_of i) in
        let b2 =
          bounds_of
            {
              i with
              app =
                Rtlb.App.map_tasks i.app ~f:(fun t ->
                    Rtlb.Task.with_preemptive t false);
            }
            (shared_of i)
        in
        List.for_all2
          (fun (p : Rtlb.Lower_bound.bound) (np : Rtlb.Lower_bound.bound) ->
            p.Rtlb.Lower_bound.lb <= np.Rtlb.Lower_bound.lb)
          b1 b2);
  ]

let suite =
  [
    ( "lower-bound",
      [
        Alcotest.test_case "paper Step 3 bounds" `Quick paper_step3_bounds;
        Alcotest.test_case "paper Step 3 demand quotients" `Quick
          paper_step3_quotients;
        Alcotest.test_case "witness intervals recompute" `Quick
          witness_is_consistent;
        Alcotest.test_case "candidate points" `Quick candidate_points;
        Alcotest.test_case "unused resource" `Quick unused_resource;
        Alcotest.test_case "RES ordering" `Quick all_in_res_order;
      ]
      @ prop_tests );
  ]
