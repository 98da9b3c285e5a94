type t = {
  n : int;
  succ : (int * int) list array;  (* (dst, weight), sorted by dst *)
  pred : (int * int) list array;  (* (src, weight), sorted by src *)
  n_edges : int;
  topo : int array;
}

exception Cycle of int list

type edge_error = Out_of_range | Self_loop | Duplicate

exception Bad_edge of int * edge_error

(* Edge indices grouped by a vertex: the run of [v] is
   [edge.(start.(v) .. start.(v+1) - 1)]. *)
type runs = { start : int array; edge : int array }

(* Stable counting sort of the [m] edge indices [order k] by [key.(e)],
   a vertex in [0, n).  Each run is filled back to front, which leaves
   [start] at the run starts. *)
let sort_by n key m order =
  let start = Array.make (n + 1) 0 in
  for k = 0 to m - 1 do
    let v = key.(order k) in
    start.(v) <- start.(v) + 1
  done;
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let edge = Array.make m 0 in
  for k = m - 1 downto 0 do
    let e = order k in
    let v = key.(e) in
    start.(v) <- start.(v) - 1;
    edge.(start.(v)) <- e
  done;
  { start; edge }

(* The edges [0, m) in (dst, src) order, grouped by [dst], and in
   (src, dst) order, grouped by [src]: each vertex's predecessors and
   successors, sorted.  The sorts are stable, so equal pairs stay in
   input order. *)
let orders n ~src ~dst m =
  let by_src = sort_by n src m Fun.id in
  let pred = sort_by n dst m (fun k -> by_src.edge.(k)) in
  (pred, sort_by n src m (fun k -> pred.edge.(k)))

(* One cycle among the vertices Kahn's algorithm left over.  Each of
   them still has a leftover predecessor (its in-degree never reached
   0), so walking first leftover predecessors from the smallest one must
   revisit a vertex; the walk between the two visits, read backwards, is
   a cycle.  It comes out in edge order, each vertex once, rotated to
   start at its smallest vertex. *)
let leftover_cycle ~src ~pred indegree =
  let leftover v = indegree.(v) > 0 in
  let rec first_pred k =
    let u = src.(pred.edge.(k)) in
    if leftover u then u else first_pred (k + 1)
  in
  let step = Array.make (Array.length indegree) (-1) in
  (* [path] holds the vertices walked so far, latest first *)
  let rec walk v i path =
    if step.(v) >= 0 then List.filteri (fun j _ -> j < i - step.(v)) path
    else begin
      step.(v) <- i;
      walk (first_pred pred.start.(v)) (i + 1) (v :: path)
    end
  in
  let rec first v = if leftover v then v else first (v + 1) in
  let cycle = walk (first 0) 0 [] in
  let low = List.fold_left min max_int cycle in
  let rec rotate before = function
    | v :: _ as rest when v = low -> rest @ List.rev before
    | v :: rest -> rotate (v :: before) rest
    | [] -> List.rev before
  in
  rotate [] cycle

(* Kahn's algorithm (FIFO, sources in increasing order, successors in
   run order), counting [indegree] down in place: the vertices in the
   order it reaches them, and how many it reaches. *)
let kahn n ~dst ~succ indegree =
  let queue = Array.make n 0 in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if indegree.(v) = 0 then begin
      queue.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for k = succ.start.(v) to succ.start.(v + 1) - 1 do
      let w = dst.(succ.edge.(k)) in
      indegree.(w) <- indegree.(w) - 1;
      if indegree.(w) = 0 then begin
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  (queue, !tail)

(* Only the successor runs matter to whether Kahn's algorithm reaches
   every vertex, so the predecessor runs are sorted for the walk only
   when it does not. *)
let find_cycle ~n ~src ~dst =
  let m = Array.length src in
  let indegree = Array.make n 0 in
  Array.iter (fun d -> indegree.(d) <- indegree.(d) + 1) dst;
  let _, reached = kahn n ~dst ~succ:(sort_by n src m Fun.id) indegree in
  if reached = n then None
  else Some (leftover_cycle ~src ~pred:(fst (orders n ~src ~dst m)) indegree)

let of_arrays ~n ~src ~dst ~weight =
  if n < 0 then invalid_arg "Dag.of_arrays: negative size";
  let m = Array.length src in
  if Array.length dst <> m || Array.length weight <> m then
    invalid_arg "Dag.of_arrays: arrays of different lengths";
  let out_of_range e =
    src.(e) < 0 || src.(e) >= n || dst.(e) < 0 || dst.(e) >= n
  in
  (* The first edge that is bad on its own ... *)
  let rec first_bad e =
    if e = m || out_of_range e || src.(e) = dst.(e) then e else first_bad (e + 1)
  in
  let m_ok = first_bad 0 in
  (* ... and the first repeat among the edges before it: an edge equal
     to the one before it in (src, dst) order. *)
  let pred, succ = orders n ~src ~dst m_ok in
  let first_dup = ref m in
  for k = 1 to m_ok - 1 do
    let e = succ.edge.(k) and p = succ.edge.(k - 1) in
    if src.(e) = src.(p) && dst.(e) = dst.(p) then first_dup := min !first_dup e
  done;
  if !first_dup < m then raise (Bad_edge (!first_dup, Duplicate));
  if m_ok < m then
    raise (Bad_edge (m_ok, if out_of_range m_ok then Out_of_range else Self_loop));
  let indegree = Array.init n (fun v -> pred.start.(v + 1) - pred.start.(v)) in
  let topo, reached = kahn n ~dst ~succ indegree in
  if reached < n then raise (Cycle (leftover_cycle ~src ~pred indegree));
  (* Each adjacency list is built back to front from its run: it comes
     out sorted, and its cells are allocated together, in vertex order,
     which is how the analysis walks them. *)
  let succs = Array.make n [] and preds = Array.make n [] in
  for k = m - 1 downto 0 do
    let e = succ.edge.(k) in
    succs.(src.(e)) <- (dst.(e), weight.(e)) :: succs.(src.(e))
  done;
  for k = m - 1 downto 0 do
    let e = pred.edge.(k) in
    preds.(dst.(e)) <- (src.(e), weight.(e)) :: preds.(dst.(e))
  done;
  { n; succ = succs; pred = preds; n_edges = m; topo }

let create ~n ~edges =
  if n < 0 then invalid_arg "Dag.create: negative size";
  let m = List.length edges in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let weight = Array.make m 0 in
  List.iteri
    (fun e (s, d, w) ->
      src.(e) <- s;
      dst.(e) <- d;
      weight.(e) <- w)
    edges;
  try of_arrays ~n ~src ~dst ~weight
  with Bad_edge (e, kind) ->
    let s = src.(e) and d = dst.(e) in
    invalid_arg
      (match kind with
      | Out_of_range ->
          Printf.sprintf "Dag.create: edge (%d,%d) out of range" s d
      | Self_loop -> Printf.sprintf "Dag.create: self loop on %d" s
      | Duplicate -> Printf.sprintf "Dag.create: duplicate edge (%d,%d)" s d)

let n_vertices t = t.n
let n_edges t = t.n_edges
let succs t v = t.succ.(v)
let preds t v = t.pred.(v)
let succ_ids t v = List.map fst t.succ.(v)
let pred_ids t v = List.map fst t.pred.(v)

let edge_weight t ~src ~dst =
  List.find_map (fun (d, w) -> if d = dst then Some w else None) t.succ.(src)

let sources t =
  List.init t.n Fun.id |> List.filter (fun v -> t.pred.(v) = [])

let sinks t = List.init t.n Fun.id |> List.filter (fun v -> t.succ.(v) = [])
let topological_order t = Array.copy t.topo

let reverse_topological_order t =
  let n = t.n in
  Array.init n (fun i -> t.topo.(n - 1 - i))

let reachable t v =
  let mark = Array.make t.n false in
  let rec go u =
    if not mark.(u) then begin
      mark.(u) <- true;
      List.iter (fun (w, _) -> go w) t.succ.(u)
    end
  in
  go v;
  mark

let transitive_closure t =
  let closure = Array.init t.n (fun _ -> Array.make t.n false) in
  (* Process in reverse topological order so successors are complete. *)
  Array.iter
    (fun v ->
      List.iter
        (fun (w, _) ->
          closure.(v).(w) <- true;
          for x = 0 to t.n - 1 do
            if closure.(w).(x) then closure.(v).(x) <- true
          done)
        t.succ.(v))
    (reverse_topological_order t);
  closure

let longest_generic t ~vertex_weight ~edge_counts =
  let dist = Array.make t.n 0 in
  Array.iter
    (fun v ->
      let best =
        List.fold_left
          (fun acc (u, w) ->
            let through = dist.(u) + if edge_counts then w else 0 in
            Stdlib.max acc through)
          0 t.pred.(v)
      in
      dist.(v) <- best + vertex_weight v)
    t.topo;
  dist

let longest_path_lengths t ~vertex_weight =
  longest_generic t ~vertex_weight ~edge_counts:false

let longest_path_with_edges t ~vertex_weight =
  longest_generic t ~vertex_weight ~edge_counts:true

let critical_path_length t ~vertex_weight =
  let dist = longest_path_lengths t ~vertex_weight in
  Array.fold_left Stdlib.max 0 dist

let fold_edges t ~init ~f =
  let acc = ref init in
  for src = 0 to t.n - 1 do
    List.iter (fun (dst, w) -> acc := f !acc ~src ~dst w) t.succ.(src)
  done;
  !acc

let map_weights t ~f =
  let edges =
    fold_edges t ~init:[] ~f:(fun acc ~src ~dst w ->
        (src, dst, f ~src ~dst w) :: acc)
  in
  create ~n:t.n ~edges

let to_dot ?(name = "dag") ?label t =
  let buf = Buffer.create 256 in
  let label = Option.value label ~default:string_of_int in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  for v = 0 to t.n - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" v (label v))
  done;
  fold_edges t ~init:() ~f:(fun () ~src ~dst w ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%d\"];\n" src dst w));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
