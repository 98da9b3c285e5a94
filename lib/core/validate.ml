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

let edge_subject e = Printf.sprintf "edge %s->%s" e.es_src e.es_dst

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

(* Edge endpoints resolved once, by name: a declared name gets the index
   of its first declaration, an undeclared one an id from [n] up, so
   every later pass keys edges by ints. *)
type resolved = {
  n : int;  (* declared tasks; ids below are declared *)
  names : string array;  (* task index -> name *)
  src : int array;
  dst : int array;
  lines : int option array;
  usable : bool array;  (* declared, no self loop, first occurrence *)
}

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* Kahn's algorithm over the usable edges; whatever survives is (part
   of) a cycle, from which one concrete cycle is walked out for the
   message. *)
let check_cycles add r =
  let n = r.n and names = r.names in
  let succs = Array.make (max n 1) [] in
  let indeg = Array.make (max n 1) 0 in
  Array.iteri
    (fun e ok ->
      if ok then begin
        let s = r.src.(e) and d = r.dst.(e) in
        succs.(s) <- d :: succs.(s);
        indeg.(d) <- indeg.(d) + 1
      end)
    r.usable;
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then Queue.add i queue
  done;
  let removed = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr removed;
    List.iter
      (fun d ->
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then Queue.add d queue)
      succs.(v)
  done;
  if !removed < n then begin
    (* walk one cycle inside the residual graph *)
    let residual i = indeg.(i) > 0 in
    let start = ref 0 in
    for i = n - 1 downto 0 do
      if residual i then start := i
    done;
    let rec walk path v =
      if List.mem v path then
        (* drop the lead-in, keep the loop *)
        let rec cut = function
          | x :: _ as l when x = v -> l
          | _ :: rest -> cut rest
          | [] -> []
        in
        cut (List.rev (v :: path))
      else
        match List.find_opt residual succs.(v) with
        | Some next -> walk (v :: path) next
        | None -> List.rev (v :: path)
    in
    (* [walk] closes the loop by repeating the entry vertex; drop that
       tail so the pairing and rendering below close it exactly once. *)
    let cycle =
      match walk [] !start with
      | first :: _ :: _ as l when List.nth l (List.length l - 1) = first ->
          List.filteri (fun i _ -> i < List.length l - 1) l
      | l -> l
    in
    let cycle_names = List.map (fun i -> names.(i)) cycle in
    let line =
      (* earliest source line of an edge along the cycle; its vertices
         are distinct, so each has one successor on it *)
      let next = Array.make (max n 1) (-1) in
      (match cycle with
      | [] -> ()
      | first :: _ ->
          let rec link = function
            | a :: (b :: _ as rest) ->
                next.(a) <- b;
                link rest
            | [ last ] -> next.(last) <- first
            | [] -> ()
          in
          link cycle);
      let best = ref None in
      Array.iteri
        (fun e ok ->
          if ok && next.(r.src.(e)) = r.dst.(e) then
            match (r.lines.(e), !best) with
            | Some l, Some b when l >= b -> ()
            | Some l, _ -> best := Some l
            | None, _ -> ())
        r.usable;
      !best
    in
    add ~code:"E101" ~severity:Error ~subject:"application" ~line
      (Printf.sprintf "precedence cycle: %s -> %s"
         (String.concat " -> " cycle_names)
         (match cycle_names with first :: _ -> first | [] -> "?"))
  end

let check_system add ~system tasks =
  let used = Hashtbl.create 16 in
  List.iter
    (fun ts ->
      Hashtbl.replace used ts.ts_proc ();
      List.iter (fun (r, _) -> Hashtbl.replace used r ()) ts.ts_demands)
    tasks;
  (match system with
  | System.Shared costs ->
      let declared r = List.mem_assoc r costs in
      List.iter
        (fun ts ->
          let add ~code fmt =
            Printf.ksprintf
              (fun m ->
                add ~code ~severity:Error ~subject:("task " ^ ts.ts_name)
                  ~line:ts.ts_line m)
              fmt
          in
          if ts.ts_proc <> "" && not (declared ts.ts_proc) then
            add ~code:"E103" "processor type '%s' has no cost in the shared model"
              ts.ts_proc;
          List.iter
            (fun (r, _) ->
              if not (declared r) then
                add ~code:"E103" "resource '%s' has no cost in the shared model" r)
            ts.ts_demands)
        tasks;
      List.iter
        (fun (r, _) ->
          if not (Hashtbl.mem used r) then
            add ~code:"W202" ~severity:Warning ~subject:("resource " ^ r)
              ~line:None "declared in the system model but used by no task")
        costs
  | System.Dedicated nts ->
      List.iter
        (fun ts ->
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
            add ~code:"E103" ~severity:Error ~subject:("task " ^ ts.ts_name)
              ~line:ts.ts_line
              (Printf.sprintf "no node type provides processor '%s'" ts.ts_proc)
          else if
            ts.ts_proc <> ""
            && List.for_all (fun (_, k) -> k >= 1) ts.ts_demands
            && not (List.exists hosts with_proc)
          then
            add ~code:"E103" ~severity:Error ~subject:("task " ^ ts.ts_name)
              ~line:ts.ts_line
              (Printf.sprintf
                 "no node type with processor '%s' provides its resources (%s)"
                 ts.ts_proc
                 (String.concat ", "
                    (List.map
                       (fun (r, k) ->
                         if k = 1 then r else Printf.sprintf "%dx%s" k r)
                       ts.ts_demands))))
        tasks;
      let provided = Hashtbl.create 16 in
      List.iter
        (fun (nt : System.node_type) ->
          Hashtbl.replace provided nt.System.nt_proc ();
          List.iter (fun (r, _) -> Hashtbl.replace provided r ()) nt.System.nt_provides)
        nts;
      Hashtbl.fold (fun r () acc -> r :: acc) provided []
      |> List.sort String.compare
      |> List.iter (fun r ->
             if not (Hashtbl.mem used r) then
               add ~code:"W202" ~severity:Warning ~subject:("resource " ^ r)
                 ~line:None "provided by the node catalogue but used by no task"))

let check_spec ~system ~tasks ~edges =
  let acc = ref [] in
  let add ~code ~severity ~subject ?(line = None) message =
    acc :=
      { d_code = code; d_severity = severity; d_subject = subject;
        d_message = message; d_line = line }
      :: !acc
  in
  (* per-task quantity and window checks *)
  List.iter
    (fun ts ->
      check_task
        (fun ~code ~severity ~subject ~line m ->
          add ~code ~severity ~subject ~line m)
        ts)
    tasks;
  (* duplicate task names; [index] keeps each name's first declaration *)
  let n = List.length tasks in
  let names = Array.make n "" in
  let index = Hashtbl.create (2 * n + 1) in
  List.iteri
    (fun i ts ->
      names.(i) <- ts.ts_name;
      if Hashtbl.mem index ts.ts_name then
        add ~code:"E105" ~severity:Error ~subject:("task " ^ ts.ts_name)
          ~line:ts.ts_line "duplicate task name"
      else Hashtbl.add index ts.ts_name i)
    tasks;
  (* mixed periodic and one-shot *)
  let periodic, oneshot =
    List.partition (fun ts -> ts.ts_period <> None) tasks
  in
  if periodic <> [] && oneshot <> [] then
    add ~code:"E106" ~severity:Error ~subject:"application" ~line:None
      (Printf.sprintf
         "mixed periodic and one-shot tasks (%d periodic, %d one-shot)"
         (List.length periodic) (List.length oneshot));
  (* per-edge checks, on endpoints resolved once *)
  let edges = Array.of_list edges in
  let m = Array.length edges in
  let unknown_ids = Hashtbl.create 16 in
  let id name =
    match Hashtbl.find_opt index name with
    | Some i -> i
    | None -> (
        match Hashtbl.find_opt unknown_ids name with
        | Some i -> i
        | None ->
            let i = n + Hashtbl.length unknown_ids in
            Hashtbl.add unknown_ids name i;
            i)
  in
  let r =
    {
      n;
      names;
      src = Array.map (fun e -> id e.es_src) edges;
      dst = Array.map (fun e -> id e.es_dst) edges;
      lines = Array.map (fun e -> e.es_line) edges;
      usable = Array.make m false;
    }
  in
  let ids = n + Hashtbl.length unknown_ids in
  let seen_edges = Itbl.create (2 * m + 1) in
  Array.iteri
    (fun k e ->
      let add ~code ~severity fmt =
        Printf.ksprintf
          (fun m ->
            add ~code ~severity ~subject:(edge_subject e) ~line:e.es_line m)
          fmt
      in
      let s = r.src.(k) and d = r.dst.(k) in
      if e.es_message < 0 then
        add ~code:"E104" ~severity:Error "negative message size %d" e.es_message;
      let undeclared name =
        add ~code:"E103" ~severity:Error "references undeclared task '%s'" name
      in
      (match (s < n, d < n) with
      | true, true -> ()
      | false, true -> undeclared e.es_src
      | true, false -> undeclared e.es_dst
      | false, false ->
          if s = d then undeclared e.es_src
          else if String.compare e.es_src e.es_dst < 0 then begin
            undeclared e.es_src;
            undeclared e.es_dst
          end
          else begin
            undeclared e.es_dst;
            undeclared e.es_src
          end);
      if s = d && s < n then add ~code:"E101" ~severity:Error "self-loop";
      let key = (s * ids) + d in
      if Itbl.mem seen_edges key then
        add ~code:"E105" ~severity:Error "duplicate edge"
      else begin
        Itbl.add seen_edges key ();
        r.usable.(k) <- s < n && d < n && s <> d
      end)
    edges;
  (* empty application *)
  if tasks = [] then
    add ~code:"W204" ~severity:Warning ~subject:"application" ~line:None
      "no tasks: every bound and the cost are 0";
  (* magnitude contract; periodic declarations are checked once unrolled,
     by [check_windows] *)
  if periodic = [] then begin
    let x = extent () in
    let res = Hashtbl.create 16 in
    List.iter
      (fun ts ->
        add_task x ~release:ts.ts_release ~deadline:ts.ts_deadline
          ~compute:ts.ts_compute ~demands:ts.ts_demands;
        Hashtbl.replace res ts.ts_proc ();
        List.iter (fun (r, _) -> Hashtbl.replace res r ()) ts.ts_demands)
      tasks;
    Array.iter (fun e -> add_message x e.es_message) edges;
    Option.iter
      (fun d -> acc := d :: !acc)
      (magnitude_diag x ~cost:(cost_sum system ~n_resources:(Hashtbl.length res)))
  end;
  (* cycles through the whole graph *)
  check_cycles
    (fun ~code ~severity ~subject ~line m -> add ~code ~severity ~subject ~line m)
    r;
  (* system-model references *)
  (match system with
  | None -> ()
  | Some system ->
      check_system
        (fun ~code ~severity ~subject ~line m ->
          add ~code ~severity ~subject ~line m)
        ~system tasks);
  by_line (List.rev !acc)

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
