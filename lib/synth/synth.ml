type stats = {
  found : (Sched.Platform.t * int) option;
  sched_calls : int;
  pruned : int;
  expanded : int;
}

module Frontier = Map.Make (Int)

let search ?(use_lower_bounds = true) ?priority ?(max_expanded = 20_000)
    ~system app =
  let node_types =
    match Rtlb.System.node_types system with
    | [] -> invalid_arg "Synth.search: not a dedicated system"
    | nts -> Array.of_list nts
  in
  let k = Array.length node_types in
  let cap = max 1 (Rtlb.App.n_tasks app) in
  let cost counts =
    let acc = ref 0 in
    Array.iteri
      (fun d c -> acc := !acc + (c * node_types.(d).Rtlb.System.nt_cost))
      counts;
    !acc
  in
  (* The admissible filter from the paper's analysis. *)
  let bounds =
    match Rtlb.System.validate_for system app with
    | Ok () -> (Rtlb.Analysis.run system app).Rtlb.Analysis.bounds
    | Error _ -> []  (* a task no node hosts fails every eligibility mask *)
  in
  let eligibility =
    Array.to_list (Rtlb.App.tasks app)
    |> List.map (fun task ->
           Array.map
             (fun nt -> Rtlb.System.node_can_host nt task)
             node_types)
    |> List.sort_uniq compare
  in
  let admissible counts =
    List.for_all
      (fun (b : Rtlb.Lower_bound.bound) ->
        let supply = ref 0 in
        Array.iteri
          (fun d c ->
            supply :=
              !supply
              + (c
                * Rtlb.System.node_provides node_types.(d)
                    b.Rtlb.Lower_bound.resource))
          counts;
        !supply >= b.Rtlb.Lower_bound.lb)
      bounds
    && List.for_all
         (fun mask ->
           let covered = ref false in
           Array.iteri (fun d c -> if c > 0 && mask.(d) then covered := true) counts;
           !covered)
         eligibility
  in
  let platform_of counts =
    Sched.Platform.dedicated
      (List.filter_map
         (fun d ->
           if counts.(d) > 0 then Some (node_types.(d), counts.(d)) else None)
         (List.init k Fun.id))
  in
  let feasible counts =
    Array.exists (fun c -> c > 0) counts
    && Sched.List_scheduler.feasible ?priority app (platform_of counts)
  in
  let module Visited = Set.Make (struct
    type t = int array

    let compare = compare
  end) in
  let visited = ref Visited.empty in
  let frontier = ref Frontier.empty in
  let push counts =
    if not (Visited.mem counts !visited) then begin
      visited := Visited.add counts !visited;
      let c = cost counts in
      frontier :=
        Frontier.update c
          (function None -> Some [ counts ] | Some l -> Some (counts :: l))
          !frontier
    end
  in
  push (Array.make k 0);
  let sched_calls = ref 0 and pruned = ref 0 and expanded = ref 0 in
  let result = ref None in
  (try
     while !result = None && !expanded < max_expanded do
       match Frontier.min_binding_opt !frontier with
       | None -> raise Exit
       | Some (c, configs) -> (
           match configs with
           | [] ->
               frontier := Frontier.remove c !frontier
           | counts :: rest ->
               frontier := Frontier.add c rest !frontier;
               incr expanded;
               let ok =
                 if use_lower_bounds && not (admissible counts) then begin
                   incr pruned;
                   false
                 end
                 else begin
                   incr sched_calls;
                   feasible counts
                 end
               in
               if ok then result := Some (platform_of counts, cost counts)
               else
                 Array.iteri
                   (fun d v ->
                     if v < cap then begin
                       let next = Array.copy counts in
                       next.(d) <- v + 1;
                       push next
                     end)
                   counts)
     done
   with Exit -> ());
  {
    found = !result;
    sched_calls = !sched_calls;
    pruned = !pruned;
    expanded = !expanded;
  }
