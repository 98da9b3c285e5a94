type witness = { w_t1 : int; w_t2 : int; w_theta : int }

type bound = {
  resource : string;
  lb : int;
  witness : witness option;
  partition : Partition.t;
}

type completeness = [ `Complete | `Partial of float ]

let theta ?resource ~est ~lct app tasks ~t1 ~t2 =
  List.fold_left
    (fun acc i ->
      let weight =
        match resource with
        | None -> 1
        | Some r -> Task.units (App.task app i) r
      in
      acc + (weight * Overlap.of_task ~est ~lct app i ~t1 ~t2))
    0 tasks

(* The Theorem 3/4 overlap of one task, as a function of t2 with t1
   fixed, is a clamped ramp: 0 until the window opens, then slope w up
   to a plateau of w*K.  Summing the per-task breakpoints once therefore
   answers every theta(t1, t2) query for that t1 in O(log n), instead of
   re-walking the task set per interval — the prefix-sum kernel behind
   the candidate-interval scan.

   Derivation from Overlap.psi (K = min(C, alpha(C - (t1 - E))) is the
   min of the constant terms; the two slope-1 terms fold into a single
   ramp started at the later breakpoint):

     non-preemptive: min(tail, t2 - t1)      = alpha(t2 - max(L - C, t1))
     preemptive:     min(tail, split)        = alpha(t2 - (L - C + alpha(t1 - E)))

   so psi(t2) = min(w*K, w * alpha(t2 - M)) for t2 > E, and 0 otherwise
   (the mu gate).  With a feasible window E + C <= L the gate is implied
   by the ramp start; with an infeasible one it can cut the ramp short,
   which the event construction below encodes as a start at E + 1. *)
module Theta_kernel = struct
  type t = {
    thr : int array;  (* ascending event thresholds *)
    slope : int array;  (* cumulative slope once thr.(i) <= t2 *)
    icept : int array;  (* cumulative intercept, same indexing *)
  }

  let make ?resource ~est ~lct app tasks ~t1 =
    let events = ref [] in
    let add thr ds di = events := (thr, ds, di) :: !events in
    List.iter
      (fun i ->
        let task = App.task app i in
        let w =
          match resource with None -> 1 | Some r -> Task.units task r
        in
        let c = task.Task.compute in
        let e = est.(i) and l = lct.(i) in
        if w > 0 && c > 0 && l > t1 then begin
          let k = min c (c - (t1 - e)) in
          if k > 0 then begin
            let m =
              if task.Task.preemptive then l - c + max 0 (t1 - e)
              else max (l - c) t1
            in
            if e >= m + k then
              (* the mu gate opens past the whole ramp: a step to w*K *)
              add (e + 1) 0 (w * k)
            else begin
              let start = max m (e + 1) in
              add start w (-w * m);
              add (m + k) (-w) (w * (m + k))
            end
          end
        end)
      tasks;
    let events =
      List.sort (fun (a, _, _) (b, _, _) -> compare a b) !events
    in
    let n = List.length events in
    let thr = Array.make n 0
    and slope = Array.make n 0
    and icept = Array.make n 0 in
    let rec fill idx s ic = function
      | [] -> idx
      | (t, ds, di) :: rest ->
          let s = s + ds and ic = ic + di in
          if idx > 0 && thr.(idx - 1) = t then begin
            slope.(idx - 1) <- s;
            icept.(idx - 1) <- ic;
            fill idx s ic rest
          end
          else begin
            thr.(idx) <- t;
            slope.(idx) <- s;
            icept.(idx) <- ic;
            fill (idx + 1) s ic rest
          end
    in
    let used = fill 0 0 0 events in
    {
      thr = Array.sub thr 0 used;
      slope = Array.sub slope 0 used;
      icept = Array.sub icept 0 used;
    }

  let eval t ~t2 =
    (* largest index with thr <= t2, by binary search *)
    let n = Array.length t.thr in
    if n = 0 || t2 < t.thr.(0) then 0
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if t.thr.(mid) <= t2 then lo := mid else hi := mid - 1
      done;
      (t.slope.(!lo) * t2) + t.icept.(!lo)
    end
end

type point_policy = [ `Endpoints | `Enriched ]

let candidate_points ?(policy = `Endpoints) ~est ~lct ?compute tasks ~lo ~hi =
  let per_task i =
    match (policy, compute) with
    | `Endpoints, _ -> [ est.(i); lct.(i) ]
    | `Enriched, Some c -> [ est.(i); lct.(i); est.(i) + c.(i); lct.(i) - c.(i) ]
    | `Enriched, None ->
        invalid_arg "Lower_bound.candidate_points: `Enriched needs ~compute"
  in
  let pts =
    List.concat_map per_task tasks |> List.filter (fun p -> p >= lo && p <= hi)
  in
  List.sort_uniq compare (lo :: hi :: pts)

(* ceil(a/b) for a >= 0, b > 0 *)
let ceil_div a b = (a + b - 1) / b

(* Merging two scan results keeps the earlier on ties (strict
   improvement only), exactly like the sequential loops; it is
   associative, so per-t1 results can be folded per block and then per
   resource without changing the winning witness. *)
let merge_scans (lb, wit) (b, w) = if b > lb then (b, w) else (lb, wit)

(* The candidate points of one block, as the scan array. *)
let block_points ?policy ~est ~lct app tasks ~lo ~hi =
  let compute =
    Array.init (App.n_tasks app) (fun i -> (App.task app i).Task.compute)
  in
  Array.of_list (candidate_points ?policy ~est ~lct ~compute tasks ~lo ~hi)

(* The densest interval starting at pts.(a): one prefix-sum kernel for
   the fixed left endpoint, then an O(log n) evaluation per right
   endpoint.  This is the unit of parallel work. *)
let scan_from ?resource ~est ~lct app tasks pts a =
  let n = Array.length pts in
  let t1 = pts.(a) in
  let kernel = Theta_kernel.make ?resource ~est ~lct app tasks ~t1 in
  let best = ref 0 and wit = ref None in
  for b = a + 1 to n - 1 do
    let t2 = pts.(b) in
    let demand = Theta_kernel.eval kernel ~t2 in
    if demand > 0 then begin
      let units = ceil_div demand (t2 - t1) in
      if units > !best then begin
        best := units;
        wit := Some { w_t1 = t1; w_t2 = t2; w_theta = demand }
      end
    end
  done;
  (!best, !wit)

(* Scan every interval generated by the candidate points of one block and
   keep the densest. *)
let scan_block ?policy ?resource ~est ~lct app tasks ~lo ~hi =
  let pts = block_points ?policy ~est ~lct app tasks ~lo ~hi in
  let acc = ref (0, None) in
  for a = 0 to Array.length pts - 2 do
    acc := merge_scans !acc (scan_from ?resource ~est ~lct app tasks pts a)
  done;
  !acc

let for_resource ?policy ~est ~lct app r =
  let tasks = App.tasks_using app r in
  let partition = Partition.compute ~est ~lct tasks in
  let lb, witness =
    List.fold_left2
      (fun (lb, wit) block (lo, hi) ->
        if lo >= hi then (lb, wit)
        else
          let b, w = scan_block ?policy ~resource:r ~est ~lct app block ~lo ~hi in
          if b > lb then (b, w) else (lb, wit))
      (0, None) partition.Partition.blocks partition.Partition.spans
  in
  { resource = r; lb; witness; partition }

let for_resource_unpartitioned ?policy ~est ~lct app r =
  let tasks = App.tasks_using app r in
  match tasks with
  | [] ->
      {
        resource = r;
        lb = 0;
        witness = None;
        partition = { Partition.blocks = []; spans = [] };
      }
  | _ ->
      let lo = List.fold_left (fun acc i -> min acc est.(i)) max_int tasks in
      let hi = List.fold_left (fun acc i -> max acc lct.(i)) min_int tasks in
      let lb, witness =
        if lo >= hi then (0, None)
        else scan_block ?policy ~resource:r ~est ~lct app tasks ~lo ~hi
      in
      {
        resource = r;
        lb;
        witness;
        partition = { Partition.blocks = [ tasks ]; spans = [ (lo, hi) ] };
      }

let pp_bound ppf b =
  Format.fprintf ppf "LB_%s = %d" b.resource b.lb;
  match b.witness with
  | None -> ()
  | Some w ->
      Format.fprintf ppf "  (Theta(%s, %d, %d) = %d)" b.resource w.w_t1 w.w_t2
        w.w_theta
