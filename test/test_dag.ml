(* Tests for the DAG substrate. *)

open Helpers

let diamond () = Dag.create ~n:4 ~edges:[ (0, 1, 5); (0, 2, 3); (1, 3, 2); (2, 3, 1) ]

let construction () =
  let g = diamond () in
  check_int "vertices" 4 (Dag.n_vertices g);
  check_int "edges" 4 (Dag.n_edges g);
  check_int_list "succs of 0" [ 1; 2 ] (Dag.succ_ids g 0);
  check_int_list "preds of 3" [ 1; 2 ] (Dag.pred_ids g 3);
  check_int_list "sources" [ 0 ] (Dag.sources g);
  check_int_list "sinks" [ 3 ] (Dag.sinks g);
  Alcotest.(check (option int)) "weight 0->1" (Some 5) (Dag.edge_weight g ~src:0 ~dst:1);
  Alcotest.(check (option int)) "missing edge" None (Dag.edge_weight g ~src:1 ~dst:2)

let invalid_inputs () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Dag.create: self loop on 1") (fun () ->
      ignore (Dag.create ~n:2 ~edges:[ (1, 1, 0) ]));
  Alcotest.check_raises "duplicate edge"
    (Invalid_argument "Dag.create: duplicate edge (0,1)") (fun () ->
      ignore (Dag.create ~n:2 ~edges:[ (0, 1, 1); (0, 1, 2) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Dag.create: edge (0,5) out of range") (fun () ->
      ignore (Dag.create ~n:2 ~edges:[ (0, 5, 1) ]))

let cycle_detection () =
  let cycle_of edges =
    match Dag.create ~n:3 ~edges with
    | exception Dag.Cycle cycle -> cycle
    | _ -> Alcotest.fail "expected cycle"
  in
  check_int_list "the whole triangle, once each" [ 0; 1; 2 ]
    (cycle_of [ (0, 1, 0); (1, 2, 0); (2, 0, 0) ]);
  (* 0 is left over by Kahn's algorithm but lies on no cycle: the walk
     must close 1 <-> 2, not end at 0 *)
  check_int_list "a leftover vertex off the cycle" [ 1; 2 ]
    (cycle_of [ (1, 2, 0); (2, 1, 0); (2, 0, 0) ])

let topo_order_valid () =
  let g = diamond () in
  let order = Dag.topological_order g in
  let position = Array.make 4 0 in
  Array.iteri (fun idx v -> position.(v) <- idx) order;
  Dag.fold_edges g ~init:() ~f:(fun () ~src ~dst _ ->
      check_bool "src before dst" true (position.(src) < position.(dst)))

let reachability () =
  let g = Dag.create ~n:5 ~edges:[ (0, 1, 0); (1, 2, 0); (3, 4, 0) ] in
  let r = Dag.reachable g 0 in
  Alcotest.(check (list bool)) "reach from 0"
    [ true; true; true; false; false ]
    (Array.to_list r);
  let c = Dag.transitive_closure g in
  check_bool "0 reaches 2" true c.(0).(2);
  check_bool "2 not reach 0" false c.(2).(0);
  check_bool "no self" false c.(0).(0);
  check_bool "3 reaches 4" true c.(3).(4)

let longest_paths () =
  let g = diamond () in
  let w = [| 2; 3; 4; 1 |] in
  let into = Dag.longest_path_lengths g ~vertex_weight:(fun i -> w.(i)) in
  Alcotest.(check (list int)) "vertex-weight only" [ 2; 5; 6; 7 ]
    (Array.to_list into);
  check_int "critical path" 7 (Dag.critical_path_length g ~vertex_weight:(fun i -> w.(i)));
  let with_edges = Dag.longest_path_with_edges g ~vertex_weight:(fun i -> w.(i)) in
  (* 0 -(5)-> 1 -(2)-> 3: 2+5+3+2+1 = 13; via 2: 2+3+4+1+1 = 11 *)
  check_int "comm-aware" 13 with_edges.(3)

let dot_output () =
  let dot = Dag.to_dot ~name:"g" (diamond ()) in
  check_bool "has digraph" true
    (String.length dot > 10 && String.sub dot 0 9 = "digraph g");
  check_bool "mentions edge" true (string_contains ~needle:"n0 -> n1" dot)

let map_weights () =
  let g = diamond () in
  let doubled = Dag.map_weights g ~f:(fun ~src:_ ~dst:_ w -> 2 * w) in
  Alcotest.(check (option int)) "doubled" (Some 10)
    (Dag.edge_weight doubled ~src:0 ~dst:1)

(* random DAG property: generator edges always yield valid topo orders *)
(* [of_arrays] against a reference built the way [create] used to be:
   per-edge checks in input order with a hash table, then comparison
   sorts of the adjacency lists; cyclicity by repeated source removal. *)
let arb_edge_arrays =
  QCheck.(
    pair (int_range 0 8)
      (list_of_size Gen.(0 -- 24)
         (triple (int_range (-1) 8) (int_range (-1) 8) (int_range 0 9))))

let of_arrays_matches_reference (n, edges) =
  let arr = Array.of_list edges in
  let src = Array.map (fun (s, _, _) -> s) arr in
  let dst = Array.map (fun (_, d, _) -> d) arr in
  let weight = Array.map (fun (_, _, w) -> w) arr in
  let first_bad =
    let seen = Hashtbl.create 16 in
    let rec go e = function
      | [] -> None
      | (s, d, _) :: rest ->
          if s < 0 || s >= n || d < 0 || d >= n then Some (e, Dag.Out_of_range)
          else if s = d then Some (e, Dag.Self_loop)
          else if Hashtbl.mem seen (s, d) then Some (e, Dag.Duplicate)
          else begin
            Hashtbl.add seen (s, d) ();
            go (e + 1) rest
          end
    in
    go 0 edges
  in
  let cyclic () =
    let rec strip vs es =
      let source v = not (List.exists (fun (_, d, _) -> d = v) es) in
      match List.find_opt source vs with
      | None -> vs <> []
      | Some v ->
          strip
            (List.filter (( <> ) v) vs)
            (List.filter (fun (s, _, _) -> s <> v) es)
    in
    strip (List.init n Fun.id) edges
  in
  (* distinct vertices, from the smallest, each joined to the next and
     the last to the first *)
  let is_cycle = function
    | [] -> false
    | first :: _ as cycle ->
        let edge a b = List.exists (fun (s, d, _) -> s = a && d = b) edges in
        let rec joined = function
          | a :: (b :: _ as rest) -> edge a b && joined rest
          | [ last ] -> edge last first
          | [] -> true
        in
        List.length (List.sort_uniq compare cycle) = List.length cycle
        && first = List.fold_left min first cycle
        && joined cycle
  in
  let src_of (s, _, _) = s and dst_of (_, d, _) = d and weight_of (_, _, w) = w in
  let adjacent key other v =
    List.filter_map
      (fun e -> if key e = v then Some (other e, weight_of e) else None)
      edges
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  match Dag.of_arrays ~n ~src ~dst ~weight with
  | g ->
      first_bad = None
      && (not (cyclic ()))
      && Dag.find_cycle ~n ~src ~dst = None
      && Dag.n_edges g = List.length edges
      && List.for_all
           (fun v ->
             Dag.succs g v = adjacent src_of dst_of v
             && Dag.preds g v = adjacent dst_of src_of v)
           (List.init n Fun.id)
  | exception Dag.Bad_edge (e, kind) -> first_bad = Some (e, kind)
  | exception Dag.Cycle cycle ->
      first_bad = None && cyclic () && is_cycle cycle
      && Dag.find_cycle ~n ~src ~dst = Some cycle

let prop_tests =
  [
    qtest ~count:500 "of_arrays matches the list reference"
      arb_edge_arrays of_arrays_matches_reference;
    qtest ~count:150 "generated graphs topo-sort correctly"
      (arb_instance ~max_tasks:20 ()) (fun i ->
        let g = Rtlb.App.graph i.app in
        let order = Dag.topological_order g in
        let position = Array.make (Dag.n_vertices g) 0 in
        Array.iteri (fun idx v -> position.(v) <- idx) order;
        Dag.fold_edges g ~init:true ~f:(fun acc ~src ~dst _ ->
            acc && position.(src) < position.(dst)));
    qtest ~count:150 "reverse topo is reverse of topo"
      (arb_instance ~max_tasks:20 ()) (fun i ->
        let g = Rtlb.App.graph i.app in
        let a = Array.to_list (Dag.topological_order g) in
        let b = Array.to_list (Dag.reverse_topological_order g) in
        a = List.rev b);
    qtest ~count:150 "closure agrees with per-vertex reachability"
      (arb_instance ~max_tasks:10 ()) (fun i ->
        let g = Rtlb.App.graph i.app in
        let n = Dag.n_vertices g in
        let c = Dag.transitive_closure g in
        List.for_all
          (fun v ->
            let r = Dag.reachable g v in
            List.for_all
              (fun w -> c.(v).(w) = (r.(w) && v <> w))
              (List.init n Fun.id))
          (List.init n Fun.id));
  ]

let suite =
  [
    ( "dag",
      [
        Alcotest.test_case "construction" `Quick construction;
        Alcotest.test_case "invalid inputs" `Quick invalid_inputs;
        Alcotest.test_case "cycle detection" `Quick cycle_detection;
        Alcotest.test_case "topological order" `Quick topo_order_valid;
        Alcotest.test_case "reachability and closure" `Quick reachability;
        Alcotest.test_case "longest paths" `Quick longest_paths;
        Alcotest.test_case "dot output" `Quick dot_output;
        Alcotest.test_case "map weights" `Quick map_weights;
      ]
      @ prop_tests );
  ]
