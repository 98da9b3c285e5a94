type t = {
  n : int;
  succ : (int * int) list array;  (* (dst, weight), sorted by dst *)
  pred : (int * int) list array;  (* (src, weight), sorted by src *)
  n_edges : int;
  topo : int array;
}

exception Cycle of int list

(* Kahn's algorithm (FIFO, sources in increasing order, successors in
   list order); on failure, walks the leftover vertices to report one
   concrete cycle. *)
let topological_sort n succ indegree =
  let queue = Array.make n 0 in
  let tail = ref 0 in
  Array.iteri
    (fun v d ->
      if d = 0 then begin
        queue.(!tail) <- v;
        incr tail
      end)
    indegree;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    List.iter
      (fun (w, _) ->
        indegree.(w) <- indegree.(w) - 1;
        if indegree.(w) = 0 then begin
          queue.(!tail) <- w;
          incr tail
        end)
      succ.(v)
  done;
  if !tail = n then queue
  else begin
    (* Find a cycle among vertices with remaining in-degree. *)
    let in_cycle = Array.make n false in
    Array.iteri (fun v d -> if d > 0 then in_cycle.(v) <- true) indegree;
    let start = ref 0 in
    Array.iteri (fun v b -> if b && not in_cycle.(!start) then start := v)
      in_cycle;
    let seen = Array.make n (-1) in
    let rec walk v step path =
      if seen.(v) >= 0 then
        (* Trim the tail before the first repetition. *)
        List.rev (v :: path)
        |> List.filteri (fun i _ -> i >= seen.(v))
      else begin
        seen.(v) <- step;
        let next =
          List.find_map
            (fun (w, _) -> if in_cycle.(w) then Some w else None)
            succ.(v)
        in
        match next with
        | Some w -> walk w (step + 1) (v :: path)
        | None -> List.rev (v :: path)
      end
    in
    raise (Cycle (walk !start 0 []))
  end

type edge_error = Out_of_range | Self_loop | Duplicate

exception Bad_edge of int * edge_error

(* Stable counting sort of the edge indices in [order] by [key.(e)], a
   vertex in [0, n). *)
let sort_by n key order =
  let start = Array.make (n + 1) 0 in
  Array.iter (fun e -> start.(key.(e) + 1) <- start.(key.(e) + 1) + 1) order;
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let sorted = Array.make (Array.length order) 0 in
  Array.iter
    (fun e ->
      let k = key.(e) in
      sorted.(start.(k)) <- e;
      start.(k) <- start.(k) + 1)
    order;
  sorted

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
  (* ... and the first repeat among the edges before it.  The edges in
     (dst, src) and (src, dst) order; the sorts are stable, so equal
     pairs stay in input order and a repeat is an edge equal to the one
     before it in (src, dst) order. *)
  let by_dst_src = sort_by n dst (sort_by n src (Array.init m_ok Fun.id)) in
  let by_src_dst = sort_by n src by_dst_src in
  let first_dup = ref m in
  for k = 1 to m_ok - 1 do
    let e = by_src_dst.(k) and p = by_src_dst.(k - 1) in
    if src.(e) = src.(p) && dst.(e) = dst.(p) then first_dup := min !first_dup e
  done;
  if !first_dup < m then raise (Bad_edge (!first_dup, Duplicate));
  if m_ok < m then
    raise (Bad_edge (m_ok, if out_of_range m_ok then Out_of_range else Self_loop));
  (* Each adjacency list is built back to front from its run in the
     matching order: it comes out sorted, and its cells are allocated
     together, in vertex order, which is how the analysis walks them. *)
  let succ = Array.make n [] and pred = Array.make n [] in
  let indegree = Array.make n 0 in
  for k = m - 1 downto 0 do
    let e = by_src_dst.(k) in
    succ.(src.(e)) <- (dst.(e), weight.(e)) :: succ.(src.(e))
  done;
  for k = m - 1 downto 0 do
    let e = by_dst_src.(k) in
    let d = dst.(e) in
    pred.(d) <- (src.(e), weight.(e)) :: pred.(d);
    indegree.(d) <- indegree.(d) + 1
  done;
  let topo = topological_sort n succ indegree in
  { n; succ; pred; n_edges = m; topo }

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
