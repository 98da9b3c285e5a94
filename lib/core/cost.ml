type shared = { s_terms : (string * int * int) list; s_cost : int }

type dedicated = {
  d_problem : Lp.Problem.t;
  d_counts : (string * int) list;
  d_cost : int;
  d_relaxed_cost : Rat.t;
}

type outcome =
  | Shared_cost of shared
  | Dedicated_cost of dedicated
  | No_feasible_system of string

let shared_bound system bounds =
  let terms =
    List.filter_map
      (fun (b : Lower_bound.bound) ->
        if b.Lower_bound.lb = 0 then None
        else
          Some
            ( b.Lower_bound.resource,
              System.resource_cost system b.Lower_bound.resource,
              b.Lower_bound.lb ))
      bounds
  in
  let s_cost = List.fold_left (fun acc (_, c, lb) -> acc + (c * lb)) 0 terms in
  { s_terms = terms; s_cost }

let dedicated_problem system app bounds =
  let nts = System.node_types system in
  if nts = [] then invalid_arg "Cost.dedicated_problem: not a dedicated system";
  let nts = Array.of_list nts in
  let n = Array.length nts in
  let var_names = Array.map (fun nt -> nt.System.nt_name) nts in
  let objective = Array.map (fun nt -> Rat.of_int nt.System.nt_cost) nts in
  (* Resource coverage: sum_n gamma_nr * x_n >= LB_r. *)
  let resource_rows =
    List.filter_map
      (fun (b : Lower_bound.bound) ->
        if b.Lower_bound.lb = 0 then None
        else
          let row =
            Array.map
              (fun nt ->
                Rat.of_int (System.node_provides nt b.Lower_bound.resource))
              nts
          in
          Some
            (Lp.Problem.constraint_
               ~name:(Printf.sprintf "units of %s" b.Lower_bound.resource)
               row Lp.Problem.Ge
               (Rat.of_int b.Lower_bound.lb)))
      bounds
  in
  (* Task coverage: every distinct eligibility set needs one node. *)
  let eligibility_rows =
    Array.to_list (App.tasks app)
    |> List.map (fun task ->
           List.map
             (fun (nt : System.node_type) -> nt.System.nt_name)
             (System.eligible_nodes system task))
    |> List.sort_uniq compare
    |> List.map (fun eligible ->
           let row =
             Array.map
               (fun nt ->
                 if List.mem nt.System.nt_name eligible then Rat.one
                 else Rat.zero)
               nts
           in
           Lp.Problem.constraint_
             ~name:
               (Printf.sprintf "host among {%s}" (String.concat "," eligible))
             row Lp.Problem.Ge Rat.one)
  in
  ignore n;
  Lp.Problem.make ~var_names ~sense:Lp.Problem.Minimize ~objective
    (resource_rows @ eligibility_rows)

let dedicated_bound system app bounds =
  let problem = dedicated_problem system app bounds in
  match Lp.Ilp.solve problem with
  | Lp.Ilp.Infeasible -> Error "covering integer program is infeasible"
  | Lp.Ilp.Unbounded -> Error "covering integer program is unbounded"
  | Lp.Ilp.Optimal { value; point } ->
      let relaxed =
        match Lp.Ilp.relaxation problem with
        | Lp.Simplex.Optimal { value; _ } -> value
        | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded ->
            (* The relaxation of a feasible bounded IP is feasible/bounded. *)
            assert false
      in
      let names = problem.Lp.Problem.var_names in
      Ok
        {
          d_problem = problem;
          d_counts =
            Array.to_list (Array.mapi (fun i x -> (names.(i), x)) point);
          d_cost = Rat.to_int_exn value;
          d_relaxed_cost = relaxed;
        }

let compute system app bounds =
  match system with
  | System.Shared _ -> Shared_cost (shared_bound system bounds)
  | System.Dedicated _ -> (
      match dedicated_bound system app bounds with
      | Ok d -> Dedicated_cost d
      | Error e -> No_feasible_system e)

let pp_outcome ppf = function
  | No_feasible_system e -> Format.fprintf ppf "no feasible system: %s" e
  | Shared_cost { s_terms; s_cost } ->
      Format.fprintf ppf "shared cost >= %d" s_cost;
      if s_terms <> [] then Format.fprintf ppf "  =";
      List.iteri
        (fun k (r, c, lb) ->
          Format.fprintf ppf "%s %d*CostR(%s={%d})"
            (if k = 0 then "" else " +")
            lb r c)
        s_terms
  | Dedicated_cost { d_counts; d_cost; d_relaxed_cost; _ } ->
      Format.fprintf ppf "dedicated cost >= %d (LP relaxation %a);" d_cost
        Rat.pp d_relaxed_cost;
      List.iter
        (fun (n, x) -> if x > 0 then Format.fprintf ppf " %s x%d" n x)
        d_counts
