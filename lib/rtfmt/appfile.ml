type t = { app : Rtlb.App.t; system : Rtlb.System.t option }

exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error (line, m))) fmt

(* ---------------- scanning ---------------- *)

(* The scanner walks the text once, by index.  A line's words are found
   as [start, stop) ranges into the text; only what a declaration keeps
   (task, processor and resource names) is copied out.  Edge endpoints
   stay ranges until they are resolved against the task names. *)

(* Space, tab and carriage return separate words, so CRLF line ends and
   tab-aligned files read like their LF/space twins. *)
let is_sep = function ' ' | '\t' | '\r' -> true | _ -> false

(* The scanning loops below are top-level recursive functions, so they
   allocate no closure; every [unsafe_get] index is below a bound the
   loop has just checked. *)

(* The decimal digits [s.[i .. stop-1]] appended to [v], or [-1] at a
   non-digit. *)
let rec digits s i stop v =
  if i = stop then v
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> digits s (i + 1) stop ((v * 10) + Char.code c - 48)
    | _ -> -1

(* [int_of_string] on [s.[pos .. stop-1]]: plain decimals of up to 18
   digits (which cannot overflow) are read in place; everything else
   (prefixes, underscores, long numbers) goes to [int_of_string] itself,
   so the syntax and the overflow rejection are exactly its own.
   @raise Failure when the range is not an integer. *)
let int_in s pos stop =
  let p =
    if pos < stop && (s.[pos] = '-' || s.[pos] = '+') then pos + 1 else pos
  in
  let v = if stop - p >= 1 && stop - p <= 18 then digits s p stop 0 else -1 in
  if v < 0 then int_of_string (String.sub s pos (stop - pos))
  else if s.[pos] = '-' then -v
  else v

let sub s pos stop = String.sub s pos (stop - pos)

(* First [c] in [s.[pos .. stop-1]], or [stop]. *)
let rec index_in s i stop c =
  if i = stop || String.unsafe_get s i = c then i else index_in s (i + 1) stop c

(* [s.[pos + i ..]] and [lit.[i ..]] agree up to [n]. *)
let rec agree s pos lit i n =
  i = n
  || String.unsafe_get s (pos + i) = String.unsafe_get lit i
     && agree s pos lit (i + 1) n

let sub_is s pos stop lit =
  let n = String.length lit in
  stop - pos = n && agree s pos lit 0 n

(* Growable int arrays for the per-edge columns. *)
type column = { mutable data : int array; mutable len : int }

let column () = { data = Array.make 256 0; len = 0 }

let push c x =
  if c.len = Array.length c.data then begin
    let data = Array.make (2 * c.len) 0 in
    Array.blit c.data 0 data 0 c.len;
    c.data <- data
  end;
  c.data.(c.len) <- x;
  c.len <- c.len + 1

(* The declarations of one file.  Edge [e < n_edges] is a row of
   columns: the text positions where its two endpoint words start (which
   also give its source line) and its message size. *)
type decls = {
  text : string;
  tasks : Rtlb.Validate.task_spec array;
  n_edges : int;
  e_src : int array;
  e_dst : int array;
  e_msg : int array;
  shared : Rtlb.System.t option;
  nodes : (int * Rtlb.System.node_type) list;
}

(* The line of text position [pos], counting on from position [from] on
   line [line] ([from <= pos]). *)
let rec line_of text ~from ~line pos =
  match String.index_from_opt text from '\n' with
  | Some j when j < pos -> line_of text ~from:(j + 1) ~line:(line + 1) pos
  | _ -> line

(* End of the word starting at [pos]: words never contain a separator,
   a newline or a comment. *)
let rec word_stop text i n =
  if i = n then i
  else
    match String.unsafe_get text i with
    | ' ' | '\t' | '\r' | '\n' | '#' -> i
    | _ -> word_stop text (i + 1) n

let word_end text pos = word_stop text pos (String.length text)

(* One line's words, as [start, stop) ranges. *)
type words = { mutable ws : int array; mutable we : int array; mutable nw : int }

(* "2xr1" -> ("r1", 2); "r1" -> ("r1", 1).  Counts are not range-checked
   here: a bad count is a diagnostic of the spec phase. *)
let parse_counted text pos stop =
  let i = index_in text pos stop 'x' in
  match if i > pos && i < stop then Some (int_in text pos i) else None with
  | Some k -> (sub text (i + 1) stop, k)
  | None | (exception Failure _) -> (sub text pos stop, 1)

(* The comma-separated items of [pos, stop), empty ones skipped, each
   read by [parse_counted], in order. *)
let counted_items text pos stop =
  let rec go i acc =
    if i >= stop then List.rev acc
    else
      let j = index_in text i stop ',' in
      go (j + 1) (if j > i then parse_counted text i j :: acc else acc)
  in
  go pos []

(* Group repeated names, first-occurrence order: "r1,r1,2xr2" ->
   [(r1, 2); (r2, 2)]. *)
let group_demands pairs =
  List.fold_left
    (fun acc (r, k) ->
      if List.mem_assoc r acc then
        List.map (fun (r', k') -> if r' = r then (r', k' + k) else (r', k')) acc
      else (r, k) :: acc)
    [] pairs
  |> List.rev

(* The [key=value] arguments of one line (words [from..]), checked in
   word order: a word without [=] other than [preemptive] is an error,
   and so is a second occurrence of a key the directive reads.  [keys]
   lists those keys; the value range of [keys.(j)] lands in
   [vals.(2j)], [vals.(2j+1)] ([-1] when absent).  Other keys are
   ignored.  Returns whether the [preemptive] flag is present. *)
let read_args text line ~what ~name w ~from keys vals =
  Array.fill vals 0 (Array.length vals) (-1);
  let preemptive = ref false in
  for k = from to w.nw - 1 do
    let pos = w.ws.(k) and stop = w.we.(k) in
    let eq = index_in text pos stop '=' in
    if eq < stop then
      for j = 0 to Array.length keys - 1 do
        if sub_is text pos eq keys.(j) then begin
          if vals.(2 * j) >= 0 then
            fail line "%s %s: duplicate key %s=" what name keys.(j);
          vals.(2 * j) <- eq + 1;
          vals.((2 * j) + 1) <- stop
        end
      done
    else if sub_is text pos stop "preemptive" then preemptive := true
    else fail line "expected key=value, got %S" (sub text pos stop)
  done;
  !preemptive

let given vals j = vals.(2 * j) >= 0
let value text vals j = sub text vals.(2 * j) vals.((2 * j) + 1)

let int_arg text line what vals j =
  try int_in text vals.(2 * j) vals.((2 * j) + 1)
  with Failure _ -> fail line "%s: not an integer: %S" what (value text vals j)

let task_keys = [| "compute"; "period"; "deadline"; "proc"; "release"; "res" |]

let parse_task text line w vals =
  if w.nw < 2 then fail line "task: missing name";
  let name = sub text w.ws.(1) w.we.(1) in
  let preemptive =
    read_args text line ~what:"task" ~name w ~from:2 task_keys vals
  in
  let has = given vals in
  if not (has 0) then fail line "task %s: missing compute=" name;
  let compute = int_arg text line "compute" vals 0 in
  let period = if has 1 then Some (int_arg text line "period" vals 1) else None in
  let deadline =
    match period with
    | _ when has 2 -> int_arg text line "deadline" vals 2
    | Some p -> p
    | None -> fail line "task %s: missing deadline=" name
  in
  if not (has 3) then fail line "task %s: missing proc=" name;
  let proc = value text vals 3 in
  let release = if has 4 then int_arg text line "release" vals 4 else 0 in
  let demands =
    if has 5 then group_demands (counted_items text vals.(10) vals.(11))
    else []
  in
  {
    Rtlb.Validate.ts_name = name;
    ts_compute = compute;
    ts_release = release;
    ts_deadline = deadline;
    ts_proc = proc;
    ts_demands = demands;
    ts_preemptive = preemptive;
    ts_period = period;
    ts_line = Some line;
  }

let parse_shared text line w =
  let costs = ref [] in
  for k = 1 to w.nw - 1 do
    let pos = w.ws.(k) and stop = w.we.(k) in
    let eq = index_in text pos stop '=' in
    if eq < stop then
      let c =
        try int_in text (eq + 1) stop
        with Failure _ ->
          fail line "cost: not an integer: %S" (sub text (eq + 1) stop)
      in
      costs := (sub text pos eq, c) :: !costs
    else if sub_is text pos stop "preemptive" then
      fail line "shared: expected RESOURCE=COST"
    else fail line "expected key=value, got %S" (sub text pos stop)
  done;
  try Rtlb.System.shared ~costs:(List.rev !costs)
  with Invalid_argument m -> fail line "shared: %s" m

let node_keys = [| "proc"; "cost"; "res" |]

let parse_node text line w vals =
  if w.nw < 2 then fail line "node: missing name";
  let name = sub text w.ws.(1) w.we.(1) in
  ignore (read_args text line ~what:"node" ~name w ~from:2 node_keys vals);
  if not (given vals 0) then fail line "node %s: missing proc=" name;
  let proc = value text vals 0 in
  let cost = if given vals 1 then int_arg text line "cost" vals 1 else 1 in
  let provides =
    if given vals 2 then counted_items text vals.(4) vals.(5) else []
  in
  try Rtlb.System.node_type ~name ~proc ~provides ~cost ()
  with Invalid_argument m -> fail line "node %s: %s" name m

let add_word w start stop =
  if w.nw = Array.length w.ws then begin
    w.ws <- Array.append w.ws w.ws;
    w.we <- Array.append w.we w.we
  end;
  w.ws.(w.nw) <- start;
  w.we.(w.nw) <- stop;
  w.nw <- w.nw + 1

(* Split [text.[i..]] up to the end of its line into [w]; returns the
   position after the line's newline. *)
let rec split_line text i n w =
  if i = n then n
  else
    match String.unsafe_get text i with
    | '\n' -> i + 1
    | '#' -> (
        match String.index_from_opt text i '\n' with
        | Some j -> j + 1
        | None -> n)
    | c when is_sep c -> split_line text (i + 1) n w
    | _ ->
        let j = word_stop text i n in
        add_word w i j;
        split_line text j n w

(* Tokenize the whole file into declarations.  Only syntax-level problems
   raise here; semantic ones (duplicates, cycles, bad quantities, dangling
   edges) survive into the declarations for the spec phase to judge. *)
let scan text =
  let tasks = ref [] and shared = ref None and nodes = ref [] in
  let e_src = column () and e_dst = column () and e_msg = column () in
  let w = { ws = Array.make 16 0; we = Array.make 16 0; nw = 0 } in
  let vals = Array.make (2 * Array.length task_keys) (-1) in
  let pos = ref 0 and line = ref 0 in
  while !pos < String.length text do
    incr line;
    let line = !line in
    w.nw <- 0;
    pos := split_line text !pos (String.length text) w;
    if w.nw > 0 then begin
      let pos0 = w.ws.(0) and stop0 = w.we.(0) in
      if sub_is text pos0 stop0 "task" then
        tasks := parse_task text line w vals :: !tasks
      else if sub_is text pos0 stop0 "edge" then begin
        if w.nw <> 4 then fail line "edge: expected 'edge SRC DST SIZE'";
        let m =
          try int_in text w.ws.(3) w.we.(3)
          with Failure _ ->
            fail line "message: not an integer: %S" (sub text w.ws.(3) w.we.(3))
        in
        push e_src w.ws.(1);
        push e_dst w.ws.(2);
        push e_msg m
      end
      else if sub_is text pos0 stop0 "shared" then begin
        if !shared <> None then fail line "duplicate shared line";
        shared := Some (parse_shared text line w)
      end
      else if sub_is text pos0 stop0 "node" then
        nodes := (line, parse_node text line w vals) :: !nodes
      else fail line "unknown directive %S" (sub text pos0 stop0)
    end
  done;
  {
    text;
    tasks = Array.of_list (List.rev !tasks);
    n_edges = e_src.len;
    e_src = e_src.data;
    e_dst = e_dst.data;
    e_msg = e_msg.data;
    shared = !shared;
    nodes = List.rev !nodes;
  }

(* ---------------- name resolution ---------------- *)

(* Open-addressing map from a task name to the index of its first
   declaration.  Lookups take a range of the text, so an edge endpoint
   resolves without being copied. *)
type names = { keys : string array; ids : int array; mask : int }

let hash_range s pos stop =
  let h = ref 0xcbf29ce484222 in
  for i = pos to stop - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  let h = !h in
  (h lxor (h lsr 31)) land max_int

let names_create n =
  let size = ref 16 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  { keys = Array.make !size ""; ids = Array.make !size (-1); mask = !size - 1 }

(* The slot holding [s.[pos..stop-1]], or the empty slot where it goes. *)
let rec probe t s pos len i =
  if t.ids.(i) < 0 then i
  else
    let k = t.keys.(i) in
    if String.length k = len && agree s pos k 0 len then i
    else probe t s pos len ((i + 1) land t.mask)

let slot t s pos stop =
  probe t s pos (stop - pos) (hash_range s pos stop land t.mask)

let find t s pos stop = t.ids.(slot t s pos stop)

(* The id of [name], adding it as [id] when absent. *)
let intern t name id =
  let i = slot t name 0 (String.length name) in
  if t.ids.(i) < 0 then begin
    t.keys.(i) <- name;
    t.ids.(i) <- id
  end;
  t.ids.(i)

(* Edge lines on demand: only diagnostics need them, and they ask in
   edge order, so counting on from the previous answer reads the text
   about once. *)
let edge_line d =
  let from = ref 0 and line = ref 1 in
  fun e ->
    let pos = d.e_src.(e) in
    if pos < !from then begin
      from := 0;
      line := 1
    end;
    line := line_of d.text ~from:!from ~line:!line pos;
    from := pos;
    Some !line

(* The declarations keyed by int, and the table of task names.  An edge
   endpoint resolves against the table without being copied; an
   undeclared name (only in a broken file) gets an id from [n] up. *)
let resolve d =
  let tasks = d.tasks and text = d.text in
  let n = Array.length tasks in
  let names = names_create n in
  let first =
    Array.mapi
      (fun i (ts : Rtlb.Validate.task_spec) -> intern names ts.ts_name i)
      tasks
  in
  let undeclared = Hashtbl.create 8 and extra = ref [] in
  let id pos =
    let stop = word_end text pos in
    match find names text pos stop with
    | -1 -> (
        let name = sub text pos stop in
        match Hashtbl.find_opt undeclared name with
        | Some i -> i
        | None ->
            let i = n + Hashtbl.length undeclared in
            Hashtbl.add undeclared name i;
            extra := name :: !extra;
            i)
    | i -> i
  in
  let m = d.n_edges in
  let src = Array.init m (fun e -> id d.e_src.(e)) in
  let dst = Array.init m (fun e -> id d.e_dst.(e)) in
  let r =
    {
      Rtlb.Validate.r_tasks = tasks;
      r_first = first;
      r_src = src;
      r_dst = dst;
      r_message = Array.sub d.e_msg 0 m;
      r_line = edge_line d;
      r_undeclared = Array.of_list (List.rev !extra);
    }
  in
  (names, r)

(* ---------------- construction ---------------- *)

let system_of d =
  match (d.shared, d.nodes) with
  | Some _, (line, _) :: _ -> fail line "both shared and node lines present"
  | Some s, [] -> Some s
  | None, [] -> None
  | None, nodes -> (
      try Some (Rtlb.System.dedicated (List.map snd nodes))
      with Invalid_argument m -> fail 0 "%s" m)

let is_periodic (r : Rtlb.Validate.resolved) =
  Array.exists
    (fun (ts : Rtlb.Validate.task_spec) -> ts.ts_period <> None)
    r.r_tasks

(* The application of declarations the spec phase accepted, so the
   constructors' own checks cannot fail.  Only periodic unrolling can
   still refuse them (an overflowing hyperperiod). *)
let build_app (r : Rtlb.Validate.resolved) =
  let tasks = r.r_tasks in
  (* each resource name repeated [units] times, the form Task.make wants *)
  let resources (ts : Rtlb.Validate.task_spec) =
    List.concat_map (fun (res, k) -> List.init k (fun _ -> res)) ts.ts_demands
  in
  if is_periodic r then
    let ptasks =
      Array.to_list tasks
      |> List.map (fun (ts : Rtlb.Validate.task_spec) ->
             Rtlb.Periodic.ptask ~name:ts.ts_name
               ~period:(Option.get ts.ts_period) ~offset:ts.ts_release
               ~compute:ts.ts_compute ~deadline:ts.ts_deadline ~proc:ts.ts_proc
               ~resources:(resources ts) ~preemptive:ts.ts_preemptive ())
    in
    let name i = tasks.(i).Rtlb.Validate.ts_name in
    let edges =
      List.init (Array.length r.r_src) (fun e ->
          (name r.r_src.(e), name r.r_dst.(e), r.r_message.(e)))
    in
    try Rtlb.Periodic.unroll ~tasks:ptasks ~edges ()
    with Invalid_argument m -> fail 0 "%s" m
  else
    let tasks =
      Array.mapi
        (fun i (ts : Rtlb.Validate.task_spec) ->
          Rtlb.Task.make ~id:i ~name:ts.ts_name ~compute:ts.ts_compute
            ~release:ts.ts_release ~deadline:ts.ts_deadline ~proc:ts.ts_proc
            ~resources:(resources ts) ~preemptive:ts.ts_preemptive ())
        tasks
    in
    Rtlb.App.of_graph ~tasks
      (Dag.of_arrays ~n:(Array.length tasks) ~src:r.r_src ~dst:r.r_dst
         ~weight:r.r_message)

(* A diagnostic as the strict path reports it: its line, and the line
   [rtlb check] prints without the [FILE:LINE:] prefix. *)
let reject (d : Rtlb.Validate.diag) =
  raise
    (Parse_error
       ( Option.value d.d_line ~default:0,
         Rtlb.Validate.to_string { d with d_line = None } ))

(* The spec phase judges the declarations, so the strict path rejects
   exactly what [check] reports, at its first error; periodic files are
   held to the magnitude contract once unrolled. *)
let parse text =
  let d = scan text in
  let system = system_of d in
  let _, r = resolve d in
  Rtlb.Validate.check_resolved ~system r
  |> List.find_opt (fun (g : Rtlb.Validate.diag) -> g.d_severity = Error)
  |> Option.iter reject;
  let app = build_app r in
  if is_periodic r then
    Option.iter reject (Rtlb.Validate.check_magnitude ~system app);
  { app; system }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path = parse (read_file path)

(* ---------------- diagnostic (spec) path ---------------- *)

type spec = { decls : decls; spec_system : Rtlb.System.t option }

let parse_spec text =
  let decls = scan text in
  { decls; spec_system = system_of decls }

let parse_spec_file path = parse_spec (read_file path)

let e100 line m =
  {
    Rtlb.Validate.d_code = "E100";
    d_severity = Rtlb.Validate.Error;
    d_subject = "application";
    d_message = m;
    d_line = (if line > 0 then Some line else None);
  }

let check { decls = d; spec_system } =
  let names, r = resolve d in
  let diags = Rtlb.Validate.check_resolved ~system:spec_system r in
  if Rtlb.Validate.has_errors diags then diags
  else
    match build_app r with
    | app ->
        let system =
          match spec_system with
          | Some s -> s
          | None ->
              Rtlb.System.shared_uniform
                ~resources:(Rtlb.App.resource_set app)
        in
        let line_of name =
          (* Periodic unrolling names jobs "t@k"; report the line of the
             declaring task. *)
          let stop =
            match String.index_opt name '@' with
            | Some i -> i
            | None -> String.length name
          in
          match find names name 0 stop with
          | -1 -> None
          | i -> d.tasks.(i).Rtlb.Validate.ts_line
        in
        let all = diags @ Rtlb.Validate.check_windows ~line_of ~system app in
        (* Interleave the two phases by source line (stable; unlocated
           diagnostics sink to the end). *)
        List.stable_sort
          (fun (a : Rtlb.Validate.diag) (b : Rtlb.Validate.diag) ->
            match (a.Rtlb.Validate.d_line, b.Rtlb.Validate.d_line) with
            | Some x, Some y -> compare x y
            | Some _, None -> -1
            | None, Some _ -> 1
            | None, None -> 0)
          all
    | exception Parse_error (l, m) -> diags @ [ e100 l m ]

let to_string ?system app =
  let buf = Buffer.create 512 in
  Array.iter
    (fun (task : Rtlb.Task.t) ->
      Buffer.add_string buf
        (Printf.sprintf "task %s compute=%d release=%d deadline=%d proc=%s"
           task.Rtlb.Task.name task.Rtlb.Task.compute task.Rtlb.Task.release
           task.Rtlb.Task.deadline task.Rtlb.Task.proc);
      (match task.Rtlb.Task.demands with
      | [] -> ()
      | ds ->
          Buffer.add_string buf
            (" res="
            ^ String.concat ","
                (List.map
                   (fun (r, k) ->
                     if k = 1 then r else Printf.sprintf "%dx%s" k r)
                   ds)));
      if task.Rtlb.Task.preemptive then Buffer.add_string buf " preemptive";
      Buffer.add_char buf '\n')
    (Rtlb.App.tasks app);
  let name i = (Rtlb.App.task app i).Rtlb.Task.name in
  Dag.fold_edges (Rtlb.App.graph app) ~init:() ~f:(fun () ~src ~dst m ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %s %d\n" (name src) (name dst) m));
  (match system with
  | None -> ()
  | Some (Rtlb.System.Shared costs) ->
      Buffer.add_string buf "shared";
      List.iter
        (fun (r, c) -> Buffer.add_string buf (Printf.sprintf " %s=%d" r c))
        costs;
      Buffer.add_char buf '\n'
  | Some (Rtlb.System.Dedicated nts) ->
      List.iter
        (fun (nt : Rtlb.System.node_type) ->
          Buffer.add_string buf
            (Printf.sprintf "node %s proc=%s" nt.Rtlb.System.nt_name
               nt.Rtlb.System.nt_proc);
          (match nt.Rtlb.System.nt_provides with
          | [] -> ()
          | provides ->
              Buffer.add_string buf " res=";
              Buffer.add_string buf
                (String.concat ","
                   (List.map
                      (fun (r, c) ->
                        if c = 1 then r else Printf.sprintf "%dx%s" c r)
                      provides)));
          Buffer.add_string buf
            (Printf.sprintf " cost=%d\n" nt.Rtlb.System.nt_cost))
        nts);
  Buffer.contents buf
