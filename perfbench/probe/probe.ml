(* The benchmark's in-process side.  Three subcommands, all driven by
   perfbench/run.py:

     probe gen WORKLOAD SEED DIR     write the seeded inputs + manifest.json
     probe verify CHECKS.json        check CLI / serve outputs against the
                                     record oracle and naive Theta
     probe trace DIR SOCKET          traced in-process run of every layer,
                                     plus a Client session against a daemon

   Everything goes through the layers' public functions; no engine is
   ever named, so the default path is what gets measured. *)

module J = Rtfmt.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let now_ns () = Rtlb_obs.Clock.now_ns Rtlb_obs.Clock.monotonic
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let count_lines s =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) s;
  !n

let member_opt k = function
  | J.Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_int = function J.Int i -> i | _ -> failwith "expected an integer"
let to_str = function J.Str s -> s | _ -> failwith "expected a string"
let to_list = function J.List l -> l | _ -> failwith "expected a list"

(* ---- input generation ------------------------------------------- *)

(* Dense inputs: the CLI's layered shape (density 0.4) at a fixed size,
   so every input of a workload costs about the same. *)
let dense_text ~seed ~n ~dedicated =
  let cfg =
    {
      Workload.Gen.default with
      Workload.Gen.seed;
      n_tasks = n;
      shape = Workload.Gen.Layered { layers = 4; density = 0.4 };
    }
  in
  let system =
    if dedicated then Workload.Gen.dedicated_system cfg
    else Workload.Gen.shared_system cfg
  in
  Rtfmt.Appfile.to_string ~system (Workload.Gen.generate cfg)

(* Sparse inputs: frame DAGs of 100-task frames, <= 3 preds per task. *)
let sparse_text ~seed ~frames =
  let app =
    Workload.Gen.layered_frames ~seed ~frames ~tasks_per_frame:100 ()
  in
  Rtfmt.Appfile.to_string ~system:(Workload.Gen.frame_system ()) app

(* Single-field what-if edits that every input accepts: deadline raises
   and compute reductions keep [release + compute <= deadline]. *)
let edits_for ~seed ~salt app k =
  let rng = Random.State.make [| seed; Rtlb.App.n_tasks app; Hashtbl.hash salt |] in
  let n = Rtlb.App.n_tasks app in
  List.init k (fun j ->
      let rec pick tries =
        let t = Rtlb.App.task app (Random.State.int rng n) in
        if j mod 2 = 1 && t.Rtlb.Task.compute >= 2 then
          J.Obj
            [
              ("task", J.Int t.Rtlb.Task.id);
              ("compute", J.Int (t.Rtlb.Task.compute - 1));
            ]
        else if j mod 2 = 1 && tries < 50 then pick (tries + 1)
        else
          J.Obj
            [
              ("task", J.Int t.Rtlb.Task.id);
              ("deadline", J.Int (t.Rtlb.Task.deadline + 1 + Random.State.int rng 5));
            ]
      in
      pick 0)

type spec = {
  s_file : string;
  s_text : string;
  s_model : string;
  s_role : string;  (** cli | hot | cold *)
  s_edits : int;
}

let gen workload seed dir =
  (* Dedicated inputs are ~30% slower (ILP, host-type merge pools); they
     stay a minority so that no p50 sits on the boundary between the
     shared and the dedicated cluster. *)
  let dense ?(dedicated = false) i n role edits =
    {
      s_file = Printf.sprintf "dense-%02d.app" i;
      s_text = dense_text ~seed:((seed * 1000) + i) ~n ~dedicated;
      s_model = (if dedicated then "dedicated" else "shared");
      s_role = role;
      s_edits = edits;
    }
  in
  let sparse i frames role edits =
    {
      s_file = Printf.sprintf "sparse-%02d.app" i;
      s_text = sparse_text ~seed:((seed * 1000) + 500 + i) ~frames;
      s_model = "frames";
      s_role = role;
      s_edits = edits;
    }
  in
  let specs =
    match workload with
    | "dense-cli" ->
        List.init 8 (fun i -> dense ~dedicated:(i mod 3 = 1) i 250 "cli" 2)
    | "sparse-cli" -> List.init 8 (fun i -> sparse i 50 "cli" 2)
    | "serve-mixed" ->
        (* Six hot dense instances, two of them dedicated (the what-ifs
           and warm analyzes), and six colder ones, four of them sparse
           (5000 tasks), that the cold analyzes cycle through: 12 >
           cache of 8. *)
        [
          dense 0 200 "hot" 6;
          dense ~dedicated:true 1 200 "hot" 6;
          dense 2 200 "hot" 6;
          dense 3 200 "hot" 6;
          dense ~dedicated:true 4 200 "hot" 6;
          dense 5 200 "hot" 6;
          dense 6 200 "cold" 0;
          sparse 0 50 "cold" 0;
          sparse 1 50 "cold" 0;
          dense 7 200 "cold" 0;
          sparse 2 50 "cold" 0;
          sparse 3 50 "cold" 0;
        ]
    | w -> failwith ("unknown workload " ^ w)
  in
  let inputs =
    List.map
      (fun s ->
        write_file (Filename.concat dir s.s_file) s.s_text;
        let { Rtfmt.Appfile.app; _ } = Rtfmt.Appfile.parse s.s_text in
        J.Obj
          [
            ("file", J.Str s.s_file);
            ("tasks", J.Int (Rtlb.App.n_tasks app));
            ("lines", J.Int (count_lines s.s_text));
            ("bytes", J.Int (String.length s.s_text));
            ("model", J.Str s.s_model);
            ("role", J.Str s.s_role);
            ("edits", J.List (edits_for ~seed ~salt:s.s_file app (max 1 s.s_edits)));
          ])
      specs
  in
  write_file
    (Filename.concat dir "manifest.json")
    (J.to_string
       (J.Obj
          [
            ("workload", J.Str workload);
            ("seed", J.Int seed);
            ("inputs", J.List inputs);
          ]))

(* ---- shared helpers ---------------------------------------------- *)

let load_instance path =
  let { Rtfmt.Appfile.app; system } = Rtfmt.Appfile.parse (read_file path) in
  match system with
  | Some s -> (app, s)
  | None -> failwith (path ^ ": no system model")

(* Edits in the protocol's own shape, decoded by the protocol parser. *)
let decode_edits edits =
  match
    Rtlb_serve.Protocol.request_of_json
      (J.Obj
         [ ("op", J.Str "whatif"); ("app", J.Str ""); ("edits", J.List edits) ])
  with
  | Ok r -> r.Rtlb_serve.Protocol.edits
  | Error m -> failwith ("bad edit: " ^ m)

(* ---- verification ------------------------------------------------- *)

exception Mismatch of string

let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt

let get k j =
  match member_opt k j with Some v -> v | None -> fail "missing field %S" k

(* The reference an output is checked against: the record oracle's
   windows and an independent value of every bound.  Small instances use
   the one-block Theorem-5 scan over all candidate intervals; large ones
   the partitioned scan, since the one-block scan is quadratic in the
   task count.  Computed once per instance and cached under [key]. *)
let references = Hashtbl.create 64

let reference ~key system app =
  match Hashtbl.find_opt references key with
  | Some r -> r
  | None ->
      let oracle = Rtlb.Est_lct.compute system app in
      let est = oracle.Rtlb.Est_lct.est and lct = oracle.Rtlb.Est_lct.lct in
      let scan =
        if Rtlb.App.n_tasks app <= 1000 then
          Rtlb.Lower_bound.for_resource_unpartitioned
        else Rtlb.Lower_bound.for_resource
      in
      let lbs =
        List.map
          (fun r -> (r, (scan ~est ~lct app r).Rtlb.Lower_bound.lb))
          (Rtlb.App.resource_set app)
      in
      let r = (est, lct, lbs) in
      Hashtbl.replace references key r;
      r

(* Certify one analysis JSON against the instance: windows equal the
   record oracle, every bound equals the reference bound and
   ceil(Theta/(t2-t1)) of its witness with Theta from the naive
   [Lower_bound.theta], and the cost follows from the bounds.  Returns
   [(resource, lb)] and the cost bound. *)
let certify_analysis ~key system app j =
  if member_opt "partial" j = Some (J.Bool true) then fail "partial result";
  if to_int (get "tasks" j) <> Rtlb.App.n_tasks app then fail "task count";
  let est, lct, reference_lbs = reference ~key system app in
  List.iteri
    (fun i w ->
      let t = Rtlb.App.task app i in
      if to_str (get "task" w) <> t.Rtlb.Task.name then fail "window %d name" i;
      if to_int (get "est" w) <> est.(i) || to_int (get "lct" w) <> lct.(i)
      then fail "window of %s differs from the oracle" t.Rtlb.Task.name)
    (to_list (get "windows" j));
  if List.length (to_list (get "windows" j)) <> Rtlb.App.n_tasks app then
    fail "window count";
  let bounds =
    List.map
      (fun b ->
        let r = to_str (get "resource" b) and lb = to_int (get "lb" b) in
        (match member_opt "witness" b with
        | None -> if lb <> 0 then fail "%s: lb %d without witness" r lb
        | Some w ->
            let t1 = to_int (get "t1" w) and t2 = to_int (get "t2" w) in
            if t2 <= t1 then fail "%s: empty witness" r;
            let theta =
              Rtlb.Lower_bound.theta ~resource:r ~est ~lct app
                (Rtlb.App.tasks_using app r) ~t1 ~t2
            in
            if theta <> to_int (get "theta" w) then fail "%s: witness theta" r;
            if lb <> (theta + (t2 - t1) - 1) / (t2 - t1) then
              fail "%s: lb %d is not certified by its witness" r lb);
        (r, lb))
      (to_list (get "bounds" j))
  in
  if List.map fst bounds <> Rtlb.App.resource_set app then fail "resource set";
  List.iter2
    (fun (r, lb) (_, expected) ->
      if lb <> expected then fail "%s: lb %d, reference %d" r lb expected)
    bounds reference_lbs;
  let as_bounds =
    List.map
      (fun (r, lb) ->
        {
          Rtlb.Lower_bound.resource = r;
          lb;
          witness = None;
          partition = { Rtlb.Partition.blocks = []; spans = [] };
        })
      bounds
  in
  let expected_cost =
    match Rtlb.Cost.compute system app as_bounds with
    | Rtlb.Cost.Shared_cost s -> s.Rtlb.Cost.s_cost
    | Rtlb.Cost.Dedicated_cost d -> d.Rtlb.Cost.d_cost
    | Rtlb.Cost.No_feasible_system e -> fail "no feasible system: %s" e
  in
  let cost = to_int (get "bound" (get "cost" j)) in
  if cost <> expected_cost then fail "cost %d, expected %d" cost expected_cost;
  (bounds, cost)

let certify_whatif ~key system app edits ~base j =
  if get "partial" j <> J.Bool false then fail "partial what-if";
  let edited = Rtlb.Incremental.apply app (decode_edits edits) in
  let key = key ^ J.to_string ~indent:false (J.List edits) in
  let lbs, _ = certify_analysis ~key system edited (get "edited" j) in
  let rows = to_list (get "deltas" j) in
  if List.length rows <> List.length lbs then fail "delta rows";
  List.iter2
    (fun row (r, lb) ->
      let base_lb = List.assoc r base in
      if
        to_str (get "resource" row) <> r
        || to_int (get "base_lb" row) <> base_lb
        || to_int (get "lb" row) <> lb
        || to_int (get "delta" row) <> lb - base_lb
      then fail "%s: delta row" r)
    rows lbs

(* CHECKS.json: [{"app": F, "analyze": OUT, "whatifs": [[EDITS, OUT]...]}].
   Prints {"failures": [[OUT, MESSAGE]...], "digest": {F: {"bounds": ..,
   "cost": ..}}}; a digest entry comes from each input's first item. *)
let verify path =
  let failures = ref [] and digest = ref [] in
  let attempt out f =
    try Some (f ())
    with Mismatch m | J.Parse_error m | Failure m ->
      failures := J.List [ J.Str out; J.Str (out ^ ": " ^ m) ] :: !failures;
      None
  in
  List.iter
    (fun item ->
      let app_file = to_str (get "app" item) in
      let analyze_out = to_str (get "analyze" item) in
      let whatifs =
        List.map
          (fun pair ->
            match to_list pair with
            | [ edits; out ] -> (to_list edits, to_str out)
            | _ -> failwith "bad whatif pair")
          (to_list (get "whatifs" item))
      in
      match attempt app_file (fun () -> load_instance app_file) with
      | None -> ()
      | Some (app, system) -> (
          match
            attempt analyze_out (fun () ->
                certify_analysis ~key:app_file system app
                  (J.parse (read_file analyze_out)))
          with
          | None ->
              List.iter
                (fun (_, out) ->
                  failures :=
                    J.List [ J.Str out; J.Str (out ^ ": base analysis failed") ]
                    :: !failures)
                whatifs
          | Some (base, cost) ->
              List.iter
                (fun (edits, out) ->
                  ignore
                    (attempt out (fun () ->
                         certify_whatif ~key:app_file system app edits ~base
                           (J.parse (read_file out)))))
                whatifs;
              let key = Filename.basename app_file in
              if not (List.mem_assoc key !digest) then
                digest :=
                  ( key,
                    J.Obj
                      [
                        ( "bounds",
                          J.Obj (List.map (fun (r, lb) -> (r, J.Int lb)) base) );
                        ("cost", J.Int cost);
                      ] )
                  :: !digest))
    (to_list (J.parse (read_file path)));
  print_endline
    (J.to_string ~indent:false
       (J.Obj
          [
            ("failures", J.List (List.rev !failures));
            ("digest", J.Obj (List.rev !digest));
          ]))

(* ---- traced run --------------------------------------------------- *)

(* Spans recorded around the calls into each layer: name, start, end,
   parent span and the op they belong to.  Kept in memory; written once
   at the end. *)
type span = {
  sp_id : int;
  sp_parent : int;
  sp_op : int;
  sp_name : string;
  sp_t0 : int64;
  sp_t1 : int64;
}

let spans = ref []
let next_id = ref 0
let stack = ref []
let cur_op = ref 0
let tracing = ref true

let span name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      stack := List.tl !stack;
      spans :=
        {
          sp_id = id;
          sp_parent = parent;
          sp_op = !cur_op;
          sp_name = name;
          sp_t0 = t0;
          sp_t1 = t1;
        }
        :: !spans
    in
    Fun.protect ~finally:finish f
  end

(* The program's own phase spans inside [Analysis.run] ("est_lct",
   "lower_bounds", "cost"), re-parented under the current span so the
   self-time table splits the analysis layer. *)
let adopt tracer =
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  List.iter
    (fun ev ->
      let name =
        match ev.Rtlb_obs.Tracer.ev_name with
        | "est_lct" -> Some "est_lct.phase"
        | "lower_bounds" -> Some "lower_bound.scan"
        | "cost" -> Some "cost.phase"
        | _ -> None
      in
      Option.iter
        (fun name ->
          incr next_id;
          let t0 = ev.Rtlb_obs.Tracer.ev_ts_ns in
          spans :=
            {
              sp_id = !next_id;
              sp_parent = parent;
              sp_op = !cur_op;
              sp_name = name;
              sp_t0 = t0;
              sp_t1 = Int64.add t0 ev.Rtlb_obs.Tracer.ev_dur_ns;
            }
            :: !spans)
        name)
    (Rtlb_obs.Tracer.events tracer)

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Durations of the spans called [name], optionally only those directly
   under an op root of the given kind. *)
let durations ?op name =
  let names = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace names s.sp_id s.sp_name) !spans;
  List.filter_map
    (fun s ->
      let under_op =
        match op with
        | None -> true
        | Some k -> Hashtbl.find_opt names s.sp_parent = Some ("op." ^ k)
      in
      if s.sp_name = name && under_op then Some (ms_between s.sp_t0 s.sp_t1)
      else None)
    !spans

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Self time per layer: a span's duration minus its children's. *)
let self_times () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let d = ms_between s.sp_t0 s.sp_t1 in
      Hashtbl.replace child s.sp_parent
        (d +. Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_parent)))
    !spans;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own =
        ms_between s.sp_t0 s.sp_t1
        -. Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_id)
      in
      let l = layer_of s.sp_name in
      Hashtbl.replace tbl l
        (own +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l)))
    !spans;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let chrome_trace () =
  let t_base =
    List.fold_left (fun acc s -> min acc s.sp_t0) Int64.max_int !spans
  in
  let us t = Int64.to_float (Int64.sub t t_base) /. 1e3 in
  let ev s =
    Printf.sprintf
      {|{"name":%S,"cat":%S,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"id":%d,"parent":%d}}|}
      s.sp_name (layer_of s.sp_name) (us s.sp_t0)
      (us s.sp_t1 -. us s.sp_t0)
      s.sp_op s.sp_id s.sp_parent
  in
  "{\"traceEvents\":[\n"
  ^ String.concat ",\n" (List.rev_map ev !spans)
  ^ "\n]}\n"

type gc_acc = { mutable minor : float; mutable major : float; mutable n : int }

let gc_tbl : (string, gc_acc) Hashtbl.t = Hashtbl.create 8

(* One op: a fresh op id, a root span, and its allocation. *)
let op kind f =
  incr cur_op;
  let g0 = Gc.quick_stat () in
  let r = span ("op." ^ kind) f in
  let g1 = Gc.quick_stat () in
  let acc =
    match Hashtbl.find_opt gc_tbl kind with
    | Some a -> a
    | None ->
        let a = { minor = 0.0; major = 0.0; n = 0 } in
        Hashtbl.replace gc_tbl kind a;
        a
  in
  if !tracing then begin
    acc.minor <- acc.minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    acc.major <- acc.major +. (g1.Gc.major_words -. g0.Gc.major_words);
    acc.n <- acc.n + 1
  end;
  r

let gc_mb kind field =
  match Hashtbl.find_opt gc_tbl kind with
  | Some a when a.n > 0 ->
      let w = if field = `Minor then a.minor else a.major in
      w *. float_of_int (Sys.word_size / 8) /. float_of_int a.n /. 1e6
  | _ -> 0.0

type counts = {
  mutable c_ops : int;
  mutable c_lines : int;
  mutable c_blocks : int;
  mutable c_scanned : int;
  mutable c_cands : int;
  mutable c_evals : int;
  mutable c_bytes : int;
  mutable c_edits : int;
  mutable c_cone : int;
  mutable c_hits : int;
}

let counts () =
  {
    c_ops = 0;
    c_lines = 0;
    c_blocks = 0;
    c_scanned = 0;
    c_cands = 0;
    c_evals = 0;
    c_bytes = 0;
    c_edits = 0;
    c_cone = 0;
    c_hits = 0;
  }

(* The analyze path of the CLI, the check path, the packed engine, the
   record oracle, the cost step, and the serve what-if path replayed on
   a warm handle.  Returns the wall time of the analyze path alone. *)
let pipeline c ~text ~lines ~edits =
  let t0 = now_ns () in
  let tracer = if !tracing then Rtlb_obs.Tracer.make () else Rtlb_obs.Tracer.null in
  let analysis, system, app =
    op "analyze" (fun () ->
        let { Rtfmt.Appfile.app; system } =
          span "appfile.parse" (fun () -> Rtfmt.Appfile.parse text)
        in
        let system = Option.get system in
        let a =
          span "analysis.run" (fun () ->
              let a = Rtlb.Analysis.run ~tracer system app in
              if !tracing then adopt tracer;
              a)
        in
        let s = span "json.render" (fun () -> J.to_string (Rtfmt.Json.of_analysis a)) in
        c.c_bytes <- c.c_bytes + String.length s;
        (a, system, app))
  in
  let analyze_ms = ms_between t0 (now_ns ()) in
  c.c_ops <- c.c_ops + 1;
  c.c_lines <- c.c_lines + lines;
  c.c_scanned <- c.c_scanned + Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Tasks_scanned;
  c.c_cands <- c.c_cands + Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Candidate_intervals;
  c.c_evals <- c.c_evals + Rtlb_obs.Tracer.counter tracer Rtlb_obs.Tracer.Theta_evals;
  List.iter
    (fun b ->
      c.c_blocks <-
        c.c_blocks
        + List.length b.Rtlb.Lower_bound.partition.Rtlb.Partition.blocks)
    analysis.Rtlb.Analysis.bounds;
  op "check" (fun () ->
      let spec = span "appfile.parse_spec" (fun () -> Rtfmt.Appfile.parse_spec text) in
      ignore (span "validate.check" (fun () -> Rtfmt.Appfile.check spec)));
  op "soa" (fun () ->
      let p = span "soa.pack" (fun () -> Rtlb.Soa.pack system app) in
      span "soa.compute_windows" (fun () -> Rtlb.Soa.compute_windows p);
      ignore (span "soa.bounds" (fun () -> Rtlb.Soa.bounds p)));
  op "oracle" (fun () ->
      ignore (span "est_lct.compute" (fun () -> Rtlb.Est_lct.compute system app)));
  op "cost" (fun () ->
      ignore
        (span "cost.compute" (fun () ->
             Rtlb.Cost.compute system app analysis.Rtlb.Analysis.bounds)));
  let handle =
    op "incremental" (fun () ->
        span "incremental.create" (fun () -> Rtlb.Incremental.create system app))
  in
  List.iter
    (fun edit ->
      let frame =
        J.to_string ~indent:false
          (J.Obj
             [
               ("id", J.Int 1);
               ("op", J.Str "whatif");
               ("app", J.Str text);
               ("edits", J.List [ edit ]);
             ])
      in
      let etr = if !tracing then Rtlb_obs.Tracer.make () else Rtlb_obs.Tracer.null in
      op "whatif" (fun () ->
          let req =
            span "serve.decode" (fun () ->
                match Rtlb_serve.Protocol.request_of_json (J.parse frame) with
                | Ok r -> r
                | Error m -> failwith m)
          in
          let { Rtfmt.Appfile.app; system } =
            span "appfile.parse" (fun () -> Rtfmt.Appfile.parse req.Rtlb_serve.Protocol.app)
          in
          let system = Option.get system in
          ignore
            (span "incremental.fingerprint" (fun () ->
                 Rtlb.Incremental.instance_fingerprint system app));
          let edited =
            span "incremental.edit" (fun () ->
                Rtlb.Incremental.edit ~tracer:etr handle req.Rtlb_serve.Protocol.edits)
          in
          let body =
            span "json.render_whatif" (fun () ->
                Rtfmt.Json.of_whatif ~base:(Rtlb.Incremental.base handle) ~edited)
          in
          ignore
            (span "serve.encode" (fun () ->
                 Rtlb_serve.Protocol.to_line
                   (Rtlb_serve.Protocol.ok_reply ~id:req.Rtlb_serve.Protocol.id
                      ~op:Rtlb_serve.Protocol.Whatif body))));
      c.c_edits <- c.c_edits + 1;
      c.c_cone <- c.c_cone + Rtlb_obs.Tracer.counter etr Rtlb_obs.Tracer.Cone_tasks;
      c.c_hits <- c.c_hits + Rtlb_obs.Tracer.counter etr Rtlb_obs.Tracer.Cache_hits)
    edits;
  analyze_ms

(* Sequential Client session against the daemon: per instance, a cold
   analyze, its what-ifs (client-timed), a warm analyze and a check;
   then the daemon's counters through the stats op. *)
let serve_session socket inputs =
  let client = Rtlb_serve.Client.connect_unix ~retry_for:10.0 socket in
  let whatif_ms = ref [] and analysis_reqs = ref 0 in
  let call req =
    let t0 = now_ns () in
    match Rtlb_serve.Client.call client req with
    | Ok reply when member_opt "ok" reply = Some (J.Bool true) ->
        (reply, ms_between t0 (now_ns ()))
    | Ok reply -> failwith ("serve error: " ^ J.to_string ~indent:false reply)
    | Error m -> failwith ("serve transport: " ^ m)
  in
  List.iter
    (fun (text, edits) ->
      let req op extra = J.Obj ([ ("op", J.Str op); ("app", J.Str text) ] @ extra) in
      ignore (call (req "analyze" []));
      List.iter
        (fun e ->
          let _, ms = call (req "whatif" [ ("edits", J.List [ e ]) ]) in
          whatif_ms := ms :: !whatif_ms)
        edits;
      ignore (call (req "analyze" []));
      ignore (call (req "check" []));
      analysis_reqs := !analysis_reqs + 2 + List.length edits)
    inputs;
  let stats, _ = call (J.Obj [ ("op", J.Str "stats") ]) in
  Rtlb_serve.Client.close client;
  let stat k = to_int (get k (get "result" stats)) in
  (median !whatif_ms, !analysis_reqs, stat)

let trace dir socket =
  let manifest = J.parse (read_file (Filename.concat dir "manifest.json")) in
  let inputs =
    List.map
      (fun i ->
        ( read_file (Filename.concat dir (to_str (get "file" i))),
          to_int (get "lines" i),
          to_list (get "edits" i) ))
      (to_list (get "inputs" manifest))
  in
  (* Untraced and traced passes alternate per input, so the overhead
     compares the same ops under the same conditions. *)
  let plain = counts () and c = counts () in
  let untraced = ref 0.0 and traced = ref 0.0 and analyze_ms = ref [] in
  List.iter
    (fun (text, lines, edits) ->
      tracing := false;
      let t0 = now_ns () in
      analyze_ms := pipeline plain ~text ~lines ~edits :: !analyze_ms;
      untraced := !untraced +. ms_between t0 (now_ns ());
      tracing := true;
      let t0 = now_ns () in
      ignore (pipeline c ~text ~lines ~edits);
      traced := !traced +. ms_between t0 (now_ns ()))
    inputs;
  let replay_ms = median (durations "op.whatif") in
  let client_whatif_ms, analysis_reqs, stat =
    serve_session socket (List.map (fun (t, _, e) -> (t, e)) inputs)
  in
  let fc = float_of_int in
  let per_op x = fc x /. fc (max 1 c.c_ops) in
  let per_edit x = fc x /. fc (max 1 c.c_edits) in
  let sum = List.fold_left ( +. ) 0.0 in
  let parse_ms = durations ~op:"analyze" "appfile.parse" in
  let cold = stat "cold_builds" in
  let selfs = self_times () in
  let self_ms l = Option.value ~default:0.0 (List.assoc_opt l selfs) in
  let in_analyze name = sum (durations ~op:"analyze" name) in
  let analyze_total =
    in_analyze "appfile.parse" +. in_analyze "analysis.run" +. in_analyze "json.render"
  in
  (* Phase spans sit one level below analysis.run. *)
  let in_run name =
    let runs = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.sp_name = "analysis.run" then Hashtbl.replace runs s.sp_id ())
      !spans;
    sum
      (List.filter_map
         (fun s ->
           if s.sp_name = name && Hashtbl.mem runs s.sp_parent then
             Some (ms_between s.sp_t0 s.sp_t1)
           else None)
         !spans)
  in
  let metrics =
    [
      ("appfile.parse_ms", "ms", median parse_ms);
      ("appfile.parse_spec_ms", "ms", median (durations "appfile.parse_spec"));
      ("appfile.lines_per_s", "1/s", fc c.c_lines /. (sum parse_ms /. 1e3));
      ("validate.check_ms", "ms", median (durations "validate.check"));
      ("analysis.run_ms", "ms", median (durations "analysis.run"));
      ("est_lct.compute_ms", "ms", median (durations "est_lct.compute"));
      ("soa.pack_ms", "ms", median (durations "soa.pack"));
      ("soa.compute_windows_ms", "ms", median (durations "soa.compute_windows"));
      ("soa.bounds_ms", "ms", median (durations "soa.bounds"));
      ("partition.blocks", "count", per_op c.c_blocks);
      ("lower_bound.tasks_scanned", "count", per_op c.c_scanned);
      ("lower_bound.candidate_intervals", "count", per_op c.c_cands);
      ("lower_bound.theta_evals", "count", per_op c.c_evals);
      ("lower_bound.eval_ratio", "ratio", fc c.c_evals /. fc (max 1 c.c_cands));
      ("cost.ms", "ms", median (durations "cost.compute"));
      ("json.render_ms", "ms", median (durations ~op:"analyze" "json.render"));
      ("json.bytes", "bytes", per_op c.c_bytes);
      ("incremental.create_ms", "ms", median (durations "incremental.create"));
      ("incremental.fingerprint_ms", "ms", median (durations "incremental.fingerprint"));
      ("incremental.edit_ms", "ms", median (durations "incremental.edit"));
      ("incremental.cone_tasks", "count", per_edit c.c_cone);
      ("incremental.cache_hits", "count", per_edit c.c_hits);
      ("serve.replay_ms", "ms", replay_ms);
      ("serve.unaccounted_ms", "ms", client_whatif_ms -. replay_ms);
      ("serve.cold_builds", "count", fc cold);
      ("serve.evictions", "count", fc (stat "evictions"));
      ("serve.warm_ratio", "ratio", 1.0 -. (fc cold /. fc (max 1 analysis_reqs)));
      ("serve.coalesced_queries", "count", fc (stat "coalesced_queries"));
      ("serve.requests_rejected", "count", fc (stat "requests_rejected"));
      ("gc.analyze.minor_mb", "MB", gc_mb "analyze" `Minor);
      ("gc.analyze.major_mb", "MB", gc_mb "analyze" `Major);
      ("gc.check.minor_mb", "MB", gc_mb "check" `Minor);
      ("gc.check.major_mb", "MB", gc_mb "check" `Major);
      ("gc.whatif.minor_mb", "MB", gc_mb "whatif" `Minor);
      ("gc.whatif.major_mb", "MB", gc_mb "whatif" `Major);
      ( "gc.top_heap_mb",
        "MB",
        fc ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 );
      ("trace.overhead_pct", "%", (!traced -. !untraced) /. !untraced *. 100.0);
      ( "analyze.appfile_pct",
        "%",
        100.0 *. in_analyze "appfile.parse" /. analyze_total );
      ( "analyze.analysis_pct",
        "%",
        100.0 *. in_analyze "analysis.run" /. analyze_total );
      ("analyze.json_pct", "%", 100.0 *. in_analyze "json.render" /. analyze_total);
      ("analyze.est_lct_pct", "%", 100.0 *. in_run "est_lct.phase" /. analyze_total);
      ( "analyze.lower_bound_pct",
        "%",
        100.0 *. in_run "lower_bound.scan" /. analyze_total );
      ("lower_bound.scan_ms", "ms", median (durations "lower_bound.scan"));
      ("inproc.analyze_ms", "ms", median !analyze_ms);
    ]
    @ List.map
        (fun l -> ("self." ^ l ^ "_ms", "ms", self_ms l /. fc (max 1 c.c_ops)))
        [
          "appfile"; "validate"; "analysis"; "soa"; "est_lct"; "lower_bound";
          "cost"; "json"; "incremental"; "serve";
        ]
  in
  let total = sum (List.map snd selfs) in
  write_file (Filename.concat dir "trace.json") (chrome_trace ());
  Printf.printf "layer self time, traced run (%d ops, %d spans):\n" !cur_op
    (List.length !spans);
  List.iter
    (fun (l, v) ->
      Printf.printf "  %-12s %10.1f ms  %5.1f%%\n" l v (100.0 *. v /. total))
    selfs;
  print_endline
    ("{"
    ^ String.concat ", "
        (List.map
           (fun (k, u, v) ->
             Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k v u)
           metrics)
    ^ "}")

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen"; workload; seed; dir ] -> gen workload (int_of_string seed) dir
  | [ "verify"; checks ] -> verify checks
  | [ "trace"; dir; socket ] -> trace dir socket
  | _ ->
      prerr_endline "usage: probe (gen WORKLOAD SEED DIR | verify CHECKS | trace DIR SOCKET)";
      exit 2
