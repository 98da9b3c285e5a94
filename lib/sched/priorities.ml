type policy = Deadline | Lct | Least_slack | Longest_work_first

let all = [ Deadline; Lct; Least_slack; Longest_work_first ]

let name = function
  | Deadline -> "deadline (EDF)"
  | Lct -> "analysis LCT"
  | Least_slack -> "least slack"
  | Longest_work_first -> "longest work first"

let make policy system app =
  match policy with
  | Deadline -> fun i -> (Rtlb.App.task app i).Rtlb.Task.deadline
  | Longest_work_first -> fun i -> -(Rtlb.App.task app i).Rtlb.Task.compute
  | Lct ->
      let w = Rtlb.Analysis.windows system app in
      fun i -> w.Rtlb.Est_lct.lct.(i)
  | Least_slack ->
      let w = Rtlb.Analysis.windows system app in
      fun i ->
        w.Rtlb.Est_lct.lct.(i) - w.Rtlb.Est_lct.est.(i)
        - (Rtlb.App.task app i).Rtlb.Task.compute
