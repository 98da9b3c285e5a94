type severity = Error | Warning

type diag = {
  d_code : string;
  d_severity : severity;
  d_subject : string;
  d_message : string;
  d_line : int option;
}

type task_spec = {
  ts_name : string;
  ts_compute : int;
  ts_release : int;
  ts_deadline : int;
  ts_proc : string;
  ts_demands : (string * int) list;
  ts_preemptive : bool;
  ts_period : int option;
  ts_line : int option;
}

type edge_spec = {
  es_src : string;
  es_dst : string;
  es_message : int;
  es_line : int option;
}

let errors diags = List.filter (fun d -> d.d_severity = Error) diags
let has_errors diags = List.exists (fun d -> d.d_severity = Error) diags

let to_string ?file d =
  let body = Printf.sprintf "%s %s: %s" d.d_code d.d_subject d.d_message in
  match (file, d.d_line) with
  | Some f, Some l -> Printf.sprintf "%s:%d: %s" f l body
  | Some f, None -> Printf.sprintf "%s: %s" f body
  | None, Some l -> Printf.sprintf "line %d: %s" l body
  | None, None -> body

let pp_diag ppf d = Format.pp_print_string ppf (to_string d)

(* Diagnostics are accumulated in pass order, then stably sorted by
   source line so the output reads like compiler errors; diagnostics
   without a line sink to the end. *)
let by_line diags =
  List.stable_sort
    (fun a b ->
      let key d = match d.d_line with Some l -> l | None -> max_int in
      compare (key a) (key b))
    diags

let spec_of_app app =
  let tasks =
    Array.to_list (App.tasks app)
    |> List.map (fun (t : Task.t) ->
           {
             ts_name = t.Task.name;
             ts_compute = t.Task.compute;
             ts_release = t.Task.release;
             ts_deadline = t.Task.deadline;
             ts_proc = t.Task.proc;
             ts_demands = t.Task.demands;
             ts_preemptive = t.Task.preemptive;
             ts_period = None;
             ts_line = None;
           })
  in
  let name i = (App.task app i).Task.name in
  let edges =
    Dag.fold_edges (App.graph app) ~init:[] ~f:(fun acc ~src ~dst m ->
        { es_src = name src; es_dst = name dst; es_message = m; es_line = None }
        :: acc)
    |> List.rev
  in
  (tasks, edges)

(* ---------------- magnitude contract ---------------- *)

(* magnitude = W * H * (1 + K); validate.mli defines the terms and
   derives the limit.  Quantities are clamped at 0 (negative ones are
   E104 anyway) and sums saturate, so the check itself cannot wrap. *)

let magnitude_limit = max_int / 16

let sat_add a b = if a > max_int - b then max_int else a + b

let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

type extent = {
  mutable peak : int;  (* largest release or deadline *)
  mutable work : int;  (* sum of compute times and message sizes *)
  mutable weight : int;  (* W *)
}

let extent () = { peak = 0; work = 0; weight = 0 }

let add_task x ~release ~deadline ~compute ~demands =
  x.peak <- max x.peak (max (max 0 release) (max 0 deadline));
  x.work <- sat_add x.work (max 0 compute);
  x.weight <-
    List.fold_left (fun acc (_, u) -> sat_add acc (max 0 u)) (sat_add x.weight 1)
      demands

let add_message x m = x.work <- sat_add x.work (max 0 m)

(* K: the costs the cost step multiplies bounds by; without a model the
   analysis prices every resource of RES at 1. *)
let cost_sum system ~n_resources =
  match system with
  | None -> n_resources
  | Some (System.Shared costs) ->
      List.fold_left (fun acc (_, c) -> sat_add acc (max 0 c)) 0 costs
  | Some (System.Dedicated nts) ->
      List.fold_left
        (fun acc (nt : System.node_type) -> sat_add acc (max 0 nt.System.nt_cost))
        0 nts

let magnitude_diag x ~cost =
  let horizon = sat_add x.peak x.work in
  let m = sat_mul (sat_mul x.weight horizon) (sat_add 1 cost) in
  if m <= magnitude_limit then None
  else
    Some
      {
        d_code = "E107";
        d_severity = Error;
        d_subject = "application";
        d_message =
          Printf.sprintf
            "magnitudes exceed the integer contract: weight %d x horizon %d x \
             (1 + cost sum %d) must be at most %d"
            x.weight horizon cost magnitude_limit;
        d_line = None;
      }

let check_magnitude ~system app =
  let x = extent () in
  Array.iter
    (fun (t : Task.t) ->
      add_task x ~release:t.Task.release ~deadline:t.Task.deadline
        ~compute:t.Task.compute ~demands:t.Task.demands)
    (App.tasks app);
  Dag.fold_edges (App.graph app) ~init:() ~f:(fun () ~src:_ ~dst:_ m ->
      add_message x m);
  magnitude_diag x
    ~cost:(cost_sum system ~n_resources:(List.length (App.resource_set app)))

(* ---------------- spec-level checks ---------------- *)

type resolved = {
  r_tasks : task_spec array;
  r_first : int array;
  r_src : int array;
  r_dst : int array;
  r_message : int array;
  r_line : int -> int option;
  r_undeclared : string array;
}

let check_task add (ts : task_spec) =
  let add ~code ~severity fmt =
    Printf.ksprintf
      (fun m -> add ~code ~severity ~subject:("task " ^ ts.ts_name) ~line:ts.ts_line m)
      fmt
  in
  if ts.ts_name = "" then add ~code:"E104" ~severity:Error "empty task name";
  if ts.ts_proc = "" then
    add ~code:"E104" ~severity:Error "empty processor type";
  if ts.ts_compute < 0 then
    add ~code:"E104" ~severity:Error "negative compute time %d" ts.ts_compute;
  if ts.ts_compute = 0 then
    add ~code:"W201" ~severity:Warning
      "zero-compute task (milestone): occupies no resource time";
  List.iter
    (fun (r, k) ->
      if k < 1 then
        add ~code:"E104" ~severity:Error "%d units of resource '%s'" k r)
    ts.ts_demands;
  if ts.ts_proc <> "" && List.mem_assoc ts.ts_proc ts.ts_demands then
    add ~code:"E104" ~severity:Error
      "processor type '%s' listed among its resources" ts.ts_proc;
  match ts.ts_period with
  | None ->
      if ts.ts_release < 0 then
        add ~code:"E104" ~severity:Error "negative release time %d" ts.ts_release;
      if ts.ts_deadline < 0 then
        add ~code:"E104" ~severity:Error "negative deadline %d" ts.ts_deadline;
      if
        ts.ts_compute >= 0 && ts.ts_release >= 0 && ts.ts_deadline >= 0
        && ts.ts_release + ts.ts_compute > ts.ts_deadline
      then
        add ~code:"E102" ~severity:Error
          "window [%d, %d] cannot hold compute %d" ts.ts_release ts.ts_deadline
          ts.ts_compute
  | Some p ->
      if p <= 0 then add ~code:"E104" ~severity:Error "non-positive period %d" p;
      if ts.ts_deadline < 0 then
        add ~code:"E104" ~severity:Error "negative deadline %d" ts.ts_deadline;
      if p > 0 && (ts.ts_release < 0 || ts.ts_release >= p) then
        add ~code:"E104" ~severity:Error "offset %d outside [0, period %d)"
          ts.ts_release p;
      if ts.ts_compute >= 0 && ts.ts_deadline >= 0 && ts.ts_compute > ts.ts_deadline
      then
        add ~code:"E102" ~severity:Error
          "relative deadline %d cannot hold compute %d" ts.ts_deadline
          ts.ts_compute

(* Whether each edge joins the same two ids (in [0, ids)) as an earlier
   one.  Grouped by source with a stable counting sort, the edges of one
   source keep their order, and a stamp per destination spots a second
   visit. *)
let repeats ~ids src dst =
  let m = Array.length src in
  let next = Array.make (ids + 1) 0 in
  Array.iter (fun s -> next.(s) <- next.(s) + 1) src;
  for v = 1 to ids do
    next.(v) <- next.(v) + next.(v - 1)
  done;
  let by_src = Array.make m 0 in
  for e = m - 1 downto 0 do
    let s = src.(e) in
    next.(s) <- next.(s) - 1;
    by_src.(next.(s)) <- e
  done;
  (* [next] is done with: it becomes the stamps *)
  let stamp = next in
  Array.fill stamp 0 ids (-1);
  let repeated = Array.make m false in
  Array.iter
    (fun e ->
      let d = dst.(e) in
      if stamp.(d) = src.(e) then repeated.(e) <- true else stamp.(d) <- src.(e))
    by_src;
  repeated

(* The position of [x] in [names], or [-1]. *)
let index_of names x =
  let rec go i =
    if i = Array.length names then -1
    else if String.equal names.(i) x then i
    else go (i + 1)
  in
  go 0

(* Processor and resource references against the system model, and the
   model's resources no task uses.  Models are small, so names are
   looked up by scanning them. *)
let check_system add ~system tasks =
  let task_error (ts : task_spec) fmt =
    Printf.ksprintf
      (fun m ->
        add ~code:"E103" ~severity:Error ~subject:("task " ^ ts.ts_name)
          ~line:ts.ts_line m)
      fmt
  in
  let unused names used what =
    Array.iteri
      (fun i r ->
        if not used.(i) then
          add ~code:"W202" ~severity:Warning ~subject:("resource " ^ r)
            ~line:None what)
      names
  in
  match system with
  | System.Shared costs ->
      let names = Array.of_list (List.map fst costs) in
      let used = Array.make (Array.length names) false in
      Array.iter
        (fun ts ->
          if ts.ts_proc <> "" then begin
            match index_of names ts.ts_proc with
            | -1 ->
                task_error ts "processor type '%s' has no cost in the shared model"
                  ts.ts_proc
            | i -> used.(i) <- true
          end;
          List.iter
            (fun (r, _) ->
              match index_of names r with
              | -1 -> task_error ts "resource '%s' has no cost in the shared model" r
              | i -> used.(i) <- true)
            ts.ts_demands)
        tasks;
      unused names used "declared in the system model but used by no task"
  | System.Dedicated nts ->
      let names =
        List.concat_map
          (fun (nt : System.node_type) ->
            nt.System.nt_proc :: List.map fst nt.System.nt_provides)
          nts
        |> List.sort_uniq String.compare |> Array.of_list
      in
      let used = Array.make (Array.length names) false in
      let use r = match index_of names r with -1 -> () | i -> used.(i) <- true in
      Array.iter
        (fun ts ->
          use ts.ts_proc;
          List.iter (fun (r, _) -> use r) ts.ts_demands;
          let with_proc =
            List.filter
              (fun (nt : System.node_type) ->
                String.equal nt.System.nt_proc ts.ts_proc)
              nts
          in
          let hosts nt =
            List.for_all
              (fun (r, k) -> System.node_provides nt r >= k)
              ts.ts_demands
          in
          if ts.ts_proc <> "" && with_proc = [] then
            task_error ts "no node type provides processor '%s'" ts.ts_proc
          else if
            ts.ts_proc <> ""
            && List.for_all (fun (_, k) -> k >= 1) ts.ts_demands
            && not (List.exists hosts with_proc)
          then
            task_error ts
              "no node type with processor '%s' provides its resources (%s)"
              ts.ts_proc
              (String.concat ", "
                 (List.map
                    (fun (r, k) ->
                      if k = 1 then r else Printf.sprintf "%dx%s" k r)
                    ts.ts_demands)))
        tasks;
      unused names used "provided by the node catalogue but used by no task"

let check_resolved ~system r =
  let acc = ref [] in
  let add ~code ~severity ~subject ~line message =
    acc :=
      { d_code = code; d_severity = severity; d_subject = subject;
        d_message = message; d_line = line }
      :: !acc
  in
  let tasks = r.r_tasks in
  let n = Array.length tasks in
  (* per-task quantity and window checks *)
  Array.iter (check_task add) tasks;
  (* duplicate task names *)
  Array.iteri
    (fun i ts ->
      if r.r_first.(i) <> i then
        add ~code:"E105" ~severity:Error ~subject:("task " ^ ts.ts_name)
          ~line:ts.ts_line "duplicate task name")
    tasks;
  (* mixed periodic and one-shot *)
  let periodic =
    Array.fold_left (fun k ts -> if ts.ts_period <> None then k + 1 else k) 0 tasks
  in
  if periodic > 0 && periodic < n then
    add ~code:"E106" ~severity:Error ~subject:"application" ~line:None
      (Printf.sprintf
         "mixed periodic and one-shot tasks (%d periodic, %d one-shot)"
         periodic (n - periodic));
  (* per-edge checks; [usable] edges join two distinct declared tasks
     for the first time *)
  let m = Array.length r.r_src in
  let ids = n + Array.length r.r_undeclared in
  let name v = if v < n then tasks.(v).ts_name else r.r_undeclared.(v - n) in
  let repeated = repeats ~ids r.r_src r.r_dst in
  let check_edge e =
    let s = r.r_src.(e) and d = r.r_dst.(e) in
    let add ~code fmt =
      Printf.ksprintf
        (fun msg ->
          add ~code ~severity:Error
            ~subject:(Printf.sprintf "edge %s->%s" (name s) (name d))
            ~line:(r.r_line e) msg)
        fmt
    in
    if r.r_message.(e) < 0 then
      add ~code:"E104" "negative message size %d" r.r_message.(e);
    let undeclared v = add ~code:"E103" "references undeclared task '%s'" (name v) in
    (match (s < n, d < n) with
    | true, true -> ()
    | false, true -> undeclared s
    | true, false -> undeclared d
    | false, false ->
        if s = d then undeclared s
        else if String.compare (name s) (name d) < 0 then begin
          undeclared s;
          undeclared d
        end
        else begin
          undeclared d;
          undeclared s
        end);
    if s = d && s < n then add ~code:"E101" "self-loop";
    if repeated.(e) then add ~code:"E105" "duplicate edge"
  in
  let usable e =
    let s = r.r_src.(e) and d = r.r_dst.(e) in
    (not repeated.(e)) && s < n && d < n && s <> d
  in
  let kept = ref 0 in
  for e = 0 to m - 1 do
    if usable e then incr kept;
    if not (usable e && r.r_message.(e) >= 0) then check_edge e
  done;
  (* empty application *)
  if n = 0 then
    add ~code:"W204" ~severity:Warning ~subject:"application" ~line:None
      "no tasks: every bound and the cost are 0";
  (* magnitude contract; periodic declarations are checked once unrolled,
     by [check_windows] *)
  if periodic = 0 then begin
    let x = extent () in
    Array.iter
      (fun ts ->
        add_task x ~release:ts.ts_release ~deadline:ts.ts_deadline
          ~compute:ts.ts_compute ~demands:ts.ts_demands)
      tasks;
    Array.iter (add_message x) r.r_message;
    let cost =
      match system with
      | Some _ -> cost_sum system ~n_resources:0
      | None ->
          (* the uniform model prices each resource of RES at 1 *)
          let res = Hashtbl.create 16 in
          Array.iter
            (fun ts ->
              Hashtbl.replace res ts.ts_proc ();
              List.iter (fun (r, _) -> Hashtbl.replace res r ()) ts.ts_demands)
            tasks;
          Hashtbl.length res
    in
    Option.iter (fun d -> acc := d :: !acc) (magnitude_diag x ~cost)
  end;
  (* cycles through the usable edges, located at their earliest edge *)
  let src, dst =
    if !kept = m then (r.r_src, r.r_dst)
    else begin
      let src = Array.make !kept 0 and dst = Array.make !kept 0 and j = ref 0 in
      for e = 0 to m - 1 do
        if usable e then begin
          src.(!j) <- r.r_src.(e);
          dst.(!j) <- r.r_dst.(e);
          incr j
        end
      done;
      (src, dst)
    end
  in
  Option.iter
    (fun cycle ->
      let next = Array.make n (-1) and around = Array.of_list cycle in
      Array.iteri
        (fun i v -> next.(v) <- around.((i + 1) mod Array.length around))
        around;
      let first = ref max_int in
      for e = 0 to m - 1 do
        if usable e && next.(r.r_src.(e)) = r.r_dst.(e) then
          Option.iter (fun l -> first := min !first l) (r.r_line e)
      done;
      let names = List.map name (cycle @ [ List.hd cycle ]) in
      add ~code:"E101" ~severity:Error ~subject:"application"
        ~line:(if !first < max_int then Some !first else None)
        ("precedence cycle: " ^ String.concat " -> " names))
    (Dag.find_cycle ~n ~src ~dst);
  (* system-model references *)
  Option.iter (fun system -> check_system add ~system tasks) system;
  by_line (List.rev !acc)

(* Names resolved by string: a declared name is the index of its first
   declaration, an undeclared one gets an id from [n] up. *)
let check_spec ~system ~tasks ~edges =
  let tasks = Array.of_list tasks and edges = Array.of_list edges in
  let n = Array.length tasks in
  let index = Hashtbl.create (2 * n + 1) in
  let first =
    Array.mapi
      (fun i ts ->
        match Hashtbl.find_opt index ts.ts_name with
        | Some j -> j
        | None ->
            Hashtbl.add index ts.ts_name i;
            i)
      tasks
  in
  let undeclared = ref [] and ids = ref n in
  let id name =
    match Hashtbl.find_opt index name with
    | Some i -> i
    | None ->
        let i = !ids in
        incr ids;
        Hashtbl.add index name i;
        undeclared := name :: !undeclared;
        i
  in
  let src = Array.map (fun e -> id e.es_src) edges in
  let dst = Array.map (fun e -> id e.es_dst) edges in
  check_resolved ~system
    {
      r_tasks = tasks;
      r_first = first;
      r_src = src;
      r_dst = dst;
      r_message = Array.map (fun e -> e.es_message) edges;
      r_line = (fun e -> edges.(e).es_line);
      r_undeclared = Array.of_list (List.rev !undeclared);
    }

(* ---------------- post-construction window checks ---------------- *)

let check_windows ?(line_of = fun _ -> None) ~system app =
  match
    (System.validate_for system app, check_magnitude ~system:(Some system) app)
  with
  | Error e, _ ->
      [
        {
          d_code = "E103";
          d_severity = Error;
          d_subject = "application";
          d_message = e;
          d_line = None;
        };
      ]
  | Ok (), Some d -> [ d ]
  | Ok (), None ->
      let windows = Analysis.windows system app in
      let acc = ref [] in
      Array.iter
        (fun (task : Task.t) ->
          let i = task.Task.id in
          let e = windows.Est_lct.est.(i)
          and l = windows.Est_lct.lct.(i)
          and c = task.Task.compute in
          if e + c > l then
            acc :=
              {
                d_code = "E102";
                d_severity = Error;
                d_subject = "task " ^ task.Task.name;
                d_message =
                  Printf.sprintf
                    "EST/LCT window [%d, %d] cannot hold compute %d \
                     (infeasible on every system of this model)"
                    e l c;
                d_line = line_of task.Task.name;
              }
              :: !acc
          else if c > 0 && e + c = l then
            acc :=
              {
                d_code = "W203";
                d_severity = Warning;
                d_subject = "task " ^ task.Task.name;
                d_message =
                  Printf.sprintf
                    "zero slack: EST/LCT window [%d, %d] exactly holds \
                     compute %d"
                    e l c;
                d_line = line_of task.Task.name;
              }
              :: !acc)
        (App.tasks app);
      by_line (List.rev !acc)

let check ?system app =
  let system =
    match system with
    | Some s -> s
    | None -> System.shared_uniform ~resources:(App.resource_set app)
  in
  let tasks, edges = spec_of_app app in
  let spec_diags = check_spec ~system:(Some system) ~tasks ~edges in
  if has_errors spec_diags then spec_diags
  else spec_diags @ check_windows ~system app
