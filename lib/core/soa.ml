(* Structure-of-arrays analysis engine.

   [pack] compiles an instance once into contiguous [Bigarray] int
   arrays — per-task scalars, CSR adjacency with message weights, a
   per-resource member table — and the sweeps below iterate over those
   arrays instead of chasing per-task records.  The merge search, the
   Section-5 partition and the Theta prefix-sum interval scan are
   re-derived on the packed layout with the exact integer arithmetic of
   the record oracles ([Est_lct] / [Partition] / [Lower_bound]), so
   windows, bounds, witnesses and costs are bit-identical; only the
   merge {e traces} (an explanation artifact) are not reconstructed.

   The interval scan adds candidate-interval dominance pruning: for a
   fixed left endpoint t1 the kernel total is bounded by

     theta_max(t1) = sum over tasks with L > t1 of w * max(0, C - max(0, t1 - E))

   and ceil(theta_max / (t2 - t1)) is non-increasing in t2, so once it
   drops strictly below the block's incumbent bound no interval starting
   at t1 can improve on it and the right-endpoint loop stops; a whole
   left endpoint is skipped when even its first gap cannot beat the
   incumbent.  Pruning is strict-inequality only and the incumbent is a
   per-block monotone maximum seeded from real interval values, so every
   interval achieving the block maximum is always evaluated and the
   fold ([Lower_bound.merge_scans], earlier-wins on ties) returns the
   same bound and the same earliest witness as the exhaustive scan, on
   the sequential and the pool path alike. *)

open Bigarray

type ia = (int, int_elt, c_layout) Array1.t

let ia n : ia = Array1.create int c_layout n

type t = {
  app : App.t;
  system : System.t;
  n : int;
  (* per-task scalars *)
  release : ia;
  deadline : ia;
  compute : ia;
  preempt : ia;  (* 0/1 *)
  proc : ia;  (* index into [procs] *)
  hw : int;  (* words per host mask *)
  host : ia;
      (* dedicated: task [i]'s node-type bitmask in words
         [i*hw, (i+1)*hw), [mask_bits] node types per word; shared: 0 *)
  (* CSR adjacency, message weight parallel to the target *)
  succ_off : ia;
  succ_tgt : ia;
  succ_msg : ia;
  pred_off : ia;
  pred_tgt : ia;
  pred_msg : ia;
  topo : ia;
  (* resource universe, RES order *)
  res_names : string array;
  res_off : ia;
  res_task : ia;  (* member ids, ascending *)
  res_units : ia;
  (* decode tables for [unpack] *)
  names : string array;
  procs : string array;
  nts : System.node_type array;  (* [] for shared systems *)
  (* window outputs, computed in place *)
  est : ia;
  lct : ia;
}

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)
(* ------------------------------------------------------------------ *)

(* Host masks spread over as many words as the catalogue needs, so the
   node-type count is unbounded; the sign bit is left unused. *)
let mask_bits = Sys.int_size - 1

let can_host t i k =
  t.host.{(i * t.hw) + (k / mask_bits)} land (1 lsl (k mod mask_bits)) <> 0

let pack system app =
  let n = App.n_tasks app in
  let g = App.graph app in
  let nts = Array.of_list (System.node_types system) in
  let hw = max 1 ((Array.length nts + mask_bits - 1) / mask_bits) in
  let release = ia n
  and deadline = ia n
  and compute = ia n
  and preempt = ia n
  and proc = ia n
  and host = ia (n * hw) in
  Array1.fill host 0;
  let proc_code = Hashtbl.create 16 in
  let procs = ref [] and n_procs = ref 0 in
  let names = Array.make n "" in
  for i = 0 to n - 1 do
    let task = App.task app i in
    names.(i) <- task.Task.name;
    release.{i} <- task.Task.release;
    deadline.{i} <- task.Task.deadline;
    compute.{i} <- task.Task.compute;
    preempt.{i} <- (if task.Task.preemptive then 1 else 0);
    (proc.{i} <-
       (match Hashtbl.find_opt proc_code task.Task.proc with
       | Some c -> c
       | None ->
           let c = !n_procs in
           incr n_procs;
           Hashtbl.add proc_code task.Task.proc c;
           procs := task.Task.proc :: !procs;
           c));
    Array.iteri
      (fun k nt ->
        if System.node_can_host nt task then begin
          let w = (i * hw) + (k / mask_bits) in
          host.{w} <- host.{w} lor (1 lsl (k mod mask_bits))
        end)
      nts
  done;
  let procs = Array.of_list (List.rev !procs) in
  (* CSR adjacency from the Dag lists *)
  let succ_off = ia (n + 1) and pred_off = ia (n + 1) in
  let ns = ref 0 in
  for i = 0 to n - 1 do
    succ_off.{i} <- !ns;
    ns := !ns + List.length (Dag.succs g i)
  done;
  succ_off.{n} <- !ns;
  let succ_tgt = ia !ns and succ_msg = ia !ns in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    List.iter
      (fun (dst, m) ->
        succ_tgt.{!pos} <- dst;
        succ_msg.{!pos} <- m;
        incr pos)
      (Dag.succs g i)
  done;
  let np = ref 0 in
  for i = 0 to n - 1 do
    pred_off.{i} <- !np;
    np := !np + List.length (Dag.preds g i)
  done;
  pred_off.{n} <- !np;
  let pred_tgt = ia !np and pred_msg = ia !np in
  pos := 0;
  for i = 0 to n - 1 do
    List.iter
      (fun (src, m) ->
        pred_tgt.{!pos} <- src;
        pred_msg.{!pos} <- m;
        incr pos)
      (Dag.preds g i)
  done;
  let topo = ia n in
  Array.iteri (fun k v -> topo.{k} <- v) (Dag.topological_order g);
  (* per-resource member table, RES order *)
  let res_names = Array.of_list (App.resource_set app) in
  let nr = Array.length res_names in
  let members = Array.map (fun r -> App.tasks_using app r) res_names in
  let res_off = ia (nr + 1) in
  let total = ref 0 in
  Array.iteri
    (fun k m ->
      res_off.{k} <- !total;
      total := !total + List.length m)
    members;
  res_off.{nr} <- !total;
  let res_task = ia !total and res_units = ia !total in
  pos := 0;
  Array.iteri
    (fun k m ->
      let r = res_names.(k) in
      List.iter
        (fun i ->
          res_task.{!pos} <- i;
          res_units.{!pos} <- Task.units (App.task app i) r;
          incr pos)
        m)
    members;
  {
    app;
    system;
    n;
    release;
    deadline;
    compute;
    preempt;
    proc;
    hw;
    host;
    succ_off;
    succ_tgt;
    succ_msg;
    pred_off;
    pred_tgt;
    pred_msg;
    topo;
    res_names;
    res_off;
    res_task;
    res_units;
    names;
    procs;
    nts;
    est = ia n;
    lct = ia n;
  }

(* Rebuild an [App.t] from the packed arrays alone — [t.app] is only
   consulted for nothing here, which is what makes the round-trip test
   meaningful. *)
let unpack t =
  let n = t.n in
  (* invert the per-resource member table into per-task demand lists *)
  let demands = Array.make n [] in
  for k = Array.length t.res_names - 1 downto 0 do
    let r = t.res_names.(k) in
    for p = t.res_off.{k} to t.res_off.{k + 1} - 1 do
      let i = t.res_task.{p} in
      if not (String.equal r t.procs.(t.proc.{i})) then
        demands.(i) <- (r, t.res_units.{p}) :: demands.(i)
    done
  done;
  let tasks =
    List.init n (fun i ->
        let resources =
          List.concat_map (fun (r, u) -> List.init u (fun _ -> r)) demands.(i)
        in
        Task.make ~id:i ~name:t.names.(i) ~compute:t.compute.{i}
          ~release:t.release.{i} ~deadline:t.deadline.{i}
          ~proc:t.procs.(t.proc.{i}) ~resources
          ~preemptive:(t.preempt.{i} = 1) ())
  in
  let edges = ref [] in
  for i = n - 1 downto 0 do
    for p = t.succ_off.{i + 1} - 1 downto t.succ_off.{i} do
      edges := (i, t.succ_tgt.{p}, t.succ_msg.{p}) :: !edges
    done
  done;
  App.make ~tasks ~edges:!edges

(* ------------------------------------------------------------------ *)
(* In-place edits (the incremental engine's write path)                *)
(* ------------------------------------------------------------------ *)

let set_release t i v = t.release.{i} <- v
let set_deadline t i v = t.deadline.{i} <- v
let set_compute t i v = t.compute.{i} <- v

let copy_base t =
  let b = { t with release = ia t.n; deadline = ia t.n; compute = ia t.n;
            est = ia t.n; lct = ia t.n } in
  Array1.blit t.release b.release;
  Array1.blit t.deadline b.deadline;
  Array1.blit t.compute b.compute;
  Array1.blit t.est b.est;
  Array1.blit t.lct b.lct;
  b

let restore_from t ~base =
  Array1.blit base.release t.release;
  Array1.blit base.deadline t.deadline;
  Array1.blit base.compute t.compute;
  Array1.blit base.est t.est;
  Array1.blit base.lct t.lct

(* ------------------------------------------------------------------ *)
(* EST / LCT merge-search sweep over the packed arrays                  *)
(*                                                                     *)
(* Exactly [Est_lct.scan_merges] in array clothing: value every prefix *)
(* of every merge pool in msg-bound order and keep the best against    *)
(* the no-merge bound.  See est_lct.ml for why prefixes are exact.     *)
(* ------------------------------------------------------------------ *)

type sweep_ws = {
  mutable cap : int;
  mutable cm : int array;  (* pool candidate msg bounds *)
  mutable cid : int array;  (* pool candidate ids *)
  mutable suf : int array;  (* suffix combine of cm *)
  mutable sv : int array;  (* prefix jobs sorted by window value *)
  mutable sc : int array;  (* their computes *)
}

let sweep_ws () =
  { cap = 16; cm = Array.make 16 0; cid = Array.make 16 0;
    suf = Array.make 17 0; sv = Array.make 16 0; sc = Array.make 16 0 }

let ensure ws cap =
  if cap > ws.cap then begin
    let cap = max cap (2 * ws.cap) in
    ws.cap <- cap;
    ws.cm <- Array.make cap 0;
    ws.cid <- Array.make cap 0;
    ws.suf <- Array.make (cap + 1) 0;
    ws.sv <- Array.make cap 0;
    ws.sc <- Array.make cap 0
  end

(* One direction of the sweep for one task.  [is_est] selects the EST
   recursion (preds, max-combine, minimise) or the LCT mirror (succs,
   min-combine, maximise). *)
let sweep_task t ws ~is_est i =
  let off = if is_est then t.pred_off else t.succ_off in
  let tgt = if is_est then t.pred_tgt else t.succ_tgt in
  let msg = if is_est then t.pred_msg else t.succ_msg in
  let d0 = off.{i} and d1 = off.{i + 1} in
  let boundary = if is_est then t.release.{i} else t.deadline.{i} in
  if d1 = d0 then boundary
  else begin
    let identity = if is_est then min_int else max_int in
    let combine a b = if is_est then max a b else min a b in
    (* msg bound of neighbour at CSR position p *)
    let msg_of p =
      let j = tgt.{p} in
      if is_est then t.est.{j} + t.compute.{j} + msg.{p}
      else t.lct.{j} - t.compute.{j} - msg.{p}
    in
    let msg_all = ref identity in
    for p = d0 to d1 - 1 do
      msg_all := combine !msg_all (msg_of p)
    done;
    let no_merge = combine boundary !msg_all in
    let best = ref no_merge in
    let pc = t.proc.{i} in
    ensure ws (d1 - d0);
    (* Value the prefixes of one pool; [in_pool p] tests CSR positions. *)
    let scan_pool in_pool =
      let pl = ref 0 and nonpool = ref identity in
      for p = d0 to d1 - 1 do
        if in_pool p then begin
          let k = !pl in
          ws.cm.(k) <- msg_of p;
          ws.cid.(k) <- tgt.{p};
          pl := k + 1
        end
        else nonpool := combine !nonpool (msg_of p)
      done;
      let pl = !pl in
      if pl > 0 then begin
        (* sort by msg bound — decreasing emr for EST, increasing lms for
           LCT — with ascending id tie-break, as the record path does *)
        for x = 1 to pl - 1 do
          let m = ws.cm.(x) and j = ws.cid.(x) in
          let y = ref x in
          while
            !y > 0
            &&
            let pm = ws.cm.(!y - 1) and pj = ws.cid.(!y - 1) in
            if pm <> m then if is_est then pm < m else pm > m else pj > j
          do
            ws.cm.(!y) <- ws.cm.(!y - 1);
            ws.cid.(!y) <- ws.cid.(!y - 1);
            decr y
          done;
          ws.cm.(!y) <- m;
          ws.cid.(!y) <- j
        done;
        ws.suf.(pl) <- identity;
        for x = pl - 1 downto 0 do
          ws.suf.(x) <- combine ws.suf.(x + 1) ws.cm.(x)
        done;
        (* grow the prefix one candidate at a time, keeping the prefix
           jobs sorted by window value for the sequential bound *)
        for k = 1 to pl do
          let j = ws.cid.(k - 1) in
          let v = if is_est then t.est.{j} else t.lct.{j} in
          let c = t.compute.{j} in
          let x = ref (k - 1) in
          while
            !x > 0
            && (if is_est then ws.sv.(!x - 1) > v else ws.sv.(!x - 1) < v)
          do
            ws.sv.(!x) <- ws.sv.(!x - 1);
            ws.sc.(!x) <- ws.sc.(!x - 1);
            decr x
          done;
          ws.sv.(!x) <- v;
          ws.sc.(!x) <- c;
          (* ect: ascending EST fold; lst: descending LCT fold *)
          let seqv = ref identity in
          if is_est then begin
            seqv := min_int;
            for x = 0 to k - 1 do
              seqv := max !seqv ws.sv.(x) + ws.sc.(x)
            done
          end
          else begin
            seqv := max_int;
            for x = 0 to k - 1 do
              seqv := min !seqv ws.sv.(x) - ws.sc.(x)
            done
          end;
          let value =
            combine (combine (combine boundary !nonpool) ws.suf.(k)) !seqv
          in
          if is_est then (if value < !best then best := value)
          else if value > !best then best := value
        done
      end
    in
    (match t.system with
    | System.Shared _ -> scan_pool (fun p -> t.proc.{tgt.{p}} = pc)
    | System.Dedicated _ ->
        for k = 0 to Array.length t.nts - 1 do
          if can_host t i k then scan_pool (fun p -> can_host t tgt.{p} k)
        done);
    !best
  end

let recompute_windows t ~est_dirty ~lct_dirty =
  let ws = sweep_ws () in
  for k = 0 to t.n - 1 do
    let i = t.topo.{k} in
    if est_dirty.(i) then t.est.{i} <- sweep_task t ws ~is_est:true i
  done;
  for k = t.n - 1 downto 0 do
    let i = t.topo.{k} in
    if lct_dirty.(i) then t.lct.{i} <- sweep_task t ws ~is_est:false i
  done

let compute_windows t =
  let ws = sweep_ws () in
  for k = 0 to t.n - 1 do
    let i = t.topo.{k} in
    t.est.{i} <- sweep_task t ws ~is_est:true i
  done;
  for k = t.n - 1 downto 0 do
    let i = t.topo.{k} in
    t.lct.{i} <- sweep_task t ws ~is_est:false i
  done


(* The windows record, values only: merge sets and traces are an
   explanation artifact of the record oracle and are left empty here. *)
let windows t =
  {
    Est_lct.est = Array.init t.n (fun i -> t.est.{i});
    lct = Array.init t.n (fun i -> t.lct.{i});
    est_merged = [||];
    lct_merged = [||];
    est_trace = [||];
    lct_trace = [||];
  }

(* ------------------------------------------------------------------ *)
(* Theta kernel over the packed arrays                                  *)
(* ------------------------------------------------------------------ *)

let ceil_div a b = (a + b - 1) / b

(* Per-domain scratch: event buffers, the cumulative kernel arrays and
   a bucket accumulator for the counting-sort fast path.  Reused across
   work items so the scan allocates nothing per task. *)
type kernel_ws = {
  mutable kcap : int;
  mutable ev_thr : int array;
  mutable ev_ds : int array;
  mutable ev_di : int array;
  mutable thr : int array;
  mutable slope : int array;
  mutable icept : int array;
  mutable kn : int;  (* kernel entries in use *)
  mutable bcap : int;
  mutable bds : int array;  (* bucket slope deltas, zeroed after use *)
  mutable bdi : int array;
}

let kernel_ws () =
  {
    kcap = 32;
    ev_thr = Array.make 64 0;
    ev_ds = Array.make 64 0;
    ev_di = Array.make 64 0;
    thr = Array.make 64 0;
    slope = Array.make 64 0;
    icept = Array.make 64 0;
    kn = 0;
    bcap = 0;
    bds = [||];
    bdi = [||];
  }

(* Scratch is per domain, but serve runs several worker threads on one
   domain, so a workspace is taken for one work item and given back after
   it: two threads never share one.  An item that raises just drops its
   workspace. *)
type kernel_pool = { lock : Mutex.t; mutable free : kernel_ws list }

let kernel_key =
  Domain.DLS.new_key (fun () -> { lock = Mutex.create (); free = [] })

let take_kernel pool =
  Mutex.lock pool.lock;
  let ws =
    match pool.free with
    | ws :: rest ->
        pool.free <- rest;
        ws
    | [] -> kernel_ws ()
  in
  Mutex.unlock pool.lock;
  ws

let give_kernel pool ws =
  Mutex.lock pool.lock;
  pool.free <- ws :: pool.free;
  Mutex.unlock pool.lock

let ensure_kernel ws cap =
  if cap > ws.kcap then begin
    let cap = max cap (2 * ws.kcap) in
    ws.kcap <- cap;
    ws.ev_thr <- Array.make (2 * cap) 0;
    ws.ev_ds <- Array.make (2 * cap) 0;
    ws.ev_di <- Array.make (2 * cap) 0;
    ws.thr <- Array.make (2 * cap) 0;
    ws.slope <- Array.make (2 * cap) 0;
    ws.icept <- Array.make (2 * cap) 0
  end

let ensure_buckets ws len =
  if len > ws.bcap then begin
    let len = max len (2 * ws.bcap) in
    ws.bcap <- len;
    ws.bds <- Array.make len 0;
    ws.bdi <- Array.make len 0
  end

(* Build the cumulative (thr, slope, icept) arrays for the fixed left
   endpoint [t1] over the block members [ids]/[w].  Same events as
   [Lower_bound.Theta_kernel.make]; equal thresholds collapse into one
   cumulative entry, so evaluations are identical. *)
let build_kernel t ws ids w nb ~t1 =
  ensure_kernel ws (2 * nb);
  let nev = ref 0 in
  let push thr ds di =
    let k = !nev in
    ws.ev_thr.(k) <- thr;
    ws.ev_ds.(k) <- ds;
    ws.ev_di.(k) <- di;
    nev := k + 1
  in
  for x = 0 to nb - 1 do
    let i = ids.(x) in
    let wi = w.(x) in
    let c = t.compute.{i} in
    let l = t.lct.{i} in
    if wi > 0 && c > 0 && l > t1 then begin
      let e = t.est.{i} in
      let k = if t1 <= e then c else c - (t1 - e) in
      if k > 0 then begin
        let m =
          if t.preempt.{i} = 1 then l - c + max 0 (t1 - e) else max (l - c) t1
        in
        if e >= m + k then push (e + 1) 0 (wi * k)
        else begin
          push (max m (e + 1)) wi (-wi * m);
          push (m + k) (-wi) (wi * (m + k))
        end
      end
    end
  done;
  let nev = !nev in
  if nev = 0 then ws.kn <- 0
  else begin
    let lo = ref max_int and hi = ref min_int in
    for k = 0 to nev - 1 do
      if ws.ev_thr.(k) < !lo then lo := ws.ev_thr.(k);
      if ws.ev_thr.(k) > !hi then hi := ws.ev_thr.(k)
    done;
    let span = !hi - !lo + 1 in
    let kn = ref 0 in
    if span <= (4 * nev) + 64 then begin
      (* counting sort over the threshold span *)
      ensure_buckets ws span;
      for k = 0 to nev - 1 do
        let o = ws.ev_thr.(k) - !lo in
        ws.bds.(o) <- ws.bds.(o) + ws.ev_ds.(k);
        ws.bdi.(o) <- ws.bdi.(o) + ws.ev_di.(k)
      done;
      let s = ref 0 and ic = ref 0 in
      for o = 0 to span - 1 do
        if ws.bds.(o) <> 0 || ws.bdi.(o) <> 0 then begin
          s := !s + ws.bds.(o);
          ic := !ic + ws.bdi.(o);
          ws.bds.(o) <- 0;
          ws.bdi.(o) <- 0;
          ws.thr.(!kn) <- !lo + o;
          ws.slope.(!kn) <- !s;
          ws.icept.(!kn) <- !ic;
          incr kn
        end
      done
    end
    else begin
      (* sparse thresholds: comparison sort of the event triples *)
      let evs =
        Array.init nev (fun k -> (ws.ev_thr.(k), ws.ev_ds.(k), ws.ev_di.(k)))
      in
      Array.sort (fun (a, _, _) (b, _, _) -> compare a b) evs;
      let s = ref 0 and ic = ref 0 in
      Array.iter
        (fun (thr, ds, di) ->
          s := !s + ds;
          ic := !ic + di;
          if !kn > 0 && ws.thr.(!kn - 1) = thr then begin
            ws.slope.(!kn - 1) <- !s;
            ws.icept.(!kn - 1) <- !ic
          end
          else begin
            ws.thr.(!kn) <- thr;
            ws.slope.(!kn) <- !s;
            ws.icept.(!kn) <- !ic;
            incr kn
          end)
        evs
    end;
    ws.kn <- !kn
  end

let eval_kernel ws ~t2 =
  let n = ws.kn in
  if n = 0 || t2 < ws.thr.(0) then 0
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if ws.thr.(mid) <= t2 then lo := mid else hi := mid - 1
    done;
    (ws.slope.(!lo) * t2) + ws.icept.(!lo)
  end

(* ------------------------------------------------------------------ *)
(* Partition, candidate points and the dominance-pruned interval scan   *)
(* ------------------------------------------------------------------ *)

(* One scannable partition block, fully planned. *)
type blk = {
  b_res : int;  (* resource index, for labels *)
  b_ids : int array;  (* member ids, partition order *)
  b_w : int array;  (* member weights for the resource *)
  b_pts : int array;  (* candidate points, ascending, deduped *)
  b_tmax : int array;  (* theta_max at each left endpoint *)
  b_inc : int Atomic.t;  (* incumbent block bound for pruning *)
  mutable b_slot0 : int;  (* first work slot of the block *)
}

(* theta_max(t1) for every candidate point of a block, by an event sweep
   over t1: a member contributes the constant w*C up to its EST, then a
   ramp of slope -w, and nothing once t1 reaches min(E + C, L). *)
let block_theta_max t ids w nb pts =
  let np = Array.length pts in
  let tmax = Array.make np 0 in
  let events = ref [] in
  let base = ref 0 in
  for x = 0 to nb - 1 do
    let i = ids.(x) in
    let wi = w.(x) in
    let c = t.compute.{i} in
    if wi > 0 && c > 0 then begin
      let e = t.est.{i} in
      let stop = min (e + c) t.lct.{i} in
      base := !base + (wi * c);
      if stop <= e then events := (stop, 0, -wi * c) :: !events
      else begin
        events := (e + 1, -wi, wi * e) :: !events;
        events := (stop, wi, -wi * (c + e)) :: !events
      end
    end
  done;
  let events =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) !events
  in
  let slope = ref 0 and icept = ref !base in
  let rec sweep a evs =
    if a < np then begin
      match evs with
      | (thr, ds, di) :: rest when thr <= pts.(a) ->
          slope := !slope + ds;
          icept := !icept + di;
          sweep a rest
      | _ ->
          tmax.(a) <- (!slope * pts.(a)) + !icept;
          sweep (a + 1) evs
    end
  in
  sweep 0 events;
  tmax

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

(* Scan the intervals with left endpoint [pts.(a)], pruned against the
   block incumbent.  Mirrors the oracle's [Lower_bound.scan_from];
   counters count tasks per executed kernel and executed evaluations. *)
let scan_item t ~prune ~tr blk a =
  let pts = blk.b_pts in
  let np = Array.length pts in
  let t1 = pts.(a) in
  (* [b_tmax] is only populated when the plan was built with pruning. *)
  let tmax = if prune then blk.b_tmax.(a) else 0 in
  let inc0 = if prune then Atomic.get blk.b_inc else 0 in
  if
    prune
    && (tmax <= 0 || (inc0 > 0 && ceil_div tmax (pts.(a + 1) - t1) < inc0))
  then (0, None)
  else begin
    let pool = Domain.DLS.get kernel_key in
    let ws = take_kernel pool in
    let nb = Array.length blk.b_ids in
    build_kernel t ws blk.b_ids blk.b_w nb ~t1;
    let best = ref 0 and wit = ref None and evals = ref 0 in
    (try
       for b = a + 1 to np - 1 do
         let t2 = pts.(b) in
         if prune then begin
           let inc = max !best (Atomic.get blk.b_inc) in
           if inc > 0 && ceil_div tmax (t2 - t1) < inc then raise Exit
         end;
         incr evals;
         let demand = eval_kernel ws ~t2 in
         if demand > 0 then begin
           let units = ceil_div demand (t2 - t1) in
           if units > !best then begin
             best := units;
             wit :=
               Some { Lower_bound.w_t1 = t1; w_t2 = t2; w_theta = demand };
             if prune then atomic_max blk.b_inc units
           end
         end
       done
     with Exit -> ());
    give_kernel pool ws;
    if Rtlb_obs.Tracer.enabled tr then begin
      Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Tasks_scanned nb;
      Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Theta_evals !evals
    end;
    (!best, !wit)
  end

(* Partition the members of resource [r_idx] exactly as
   [Partition.compute]: sort by (EST asc, LCT desc, id asc), then sweep
   with the strict window-overlap rule.  Returns the planned blocks
   (scannable ones carry points and theta_max) plus the partition
   record. *)
let plan_resource t ~prune r_idx =
  let m0 = t.res_off.{r_idx} and m1 = t.res_off.{r_idx + 1} in
  let nm = m1 - m0 in
  let ord = Array.init nm (fun x -> m0 + x) in
  Array.sort
    (fun pa pb ->
      let a = t.res_task.{pa} and b = t.res_task.{pb} in
      let c = compare t.est.{a} t.est.{b} in
      if c <> 0 then c
      else
        let c = compare t.lct.{b} t.lct.{a} in
        if c <> 0 then c else compare a b)
    ord;
  if nm = 0 then ({ Partition.blocks = []; spans = [] }, [])
  else begin
    (* sweep into [start, stop) ranges of [ord] with their spans *)
    let ranges = ref [] in
    let start = ref 0 in
    let first = t.res_task.{ord.(0)} in
    let s = ref t.est.{first} and f = ref t.lct.{first} in
    for x = 1 to nm - 1 do
      let i = t.res_task.{ord.(x)} in
      if t.est.{i} < !f then begin
        if t.est.{i} < !s then s := t.est.{i};
        if t.lct.{i} > !f then f := t.lct.{i}
      end
      else begin
        ranges := (!start, x, !s, !f) :: !ranges;
        start := x;
        s := t.est.{i};
        f := t.lct.{i}
      end
    done;
    ranges := (!start, nm, !s, !f) :: !ranges;
    let ranges = List.rev !ranges in
    let blocks =
      List.map
        (fun (x0, x1, _, _) ->
          List.init (x1 - x0) (fun k -> t.res_task.{ord.(x0 + k)}))
        ranges
    in
    let spans = List.map (fun (_, _, s, f) -> (s, f)) ranges in
    let planned =
      List.filter_map
        (fun (x0, x1, lo, hi) ->
          if lo >= hi then None
          else begin
            let nb = x1 - x0 in
            let ids = Array.init nb (fun k -> t.res_task.{ord.(x0 + k)}) in
            let w = Array.init nb (fun k -> t.res_units.{ord.(x0 + k)}) in
            (* candidate points: member EST/LCT clipped to the span, plus
               the span bounds, sorted and deduped *)
            let raw = Array.make ((2 * nb) + 2) lo in
            raw.(1) <- hi;
            let np = ref 2 in
            for k = 0 to nb - 1 do
              let e = t.est.{ids.(k)} and l = t.lct.{ids.(k)} in
              if e >= lo && e <= hi then begin
                raw.(!np) <- e;
                incr np
              end;
              if l >= lo && l <= hi then begin
                raw.(!np) <- l;
                incr np
              end
            done;
            let raw = Array.sub raw 0 !np in
            Array.sort compare raw;
            let pts = Array.make !np 0 in
            let u = ref 0 in
            Array.iter
              (fun p ->
                if !u = 0 || pts.(!u - 1) <> p then begin
                  pts.(!u) <- p;
                  incr u
                end)
              raw;
            let pts = Array.sub pts 0 !u in
            let tmax =
              if prune then block_theta_max t ids w nb pts else [||]
            in
            Some
              {
                b_res = r_idx;
                b_ids = ids;
                b_w = w;
                b_pts = pts;
                b_tmax = tmax;
                b_inc = Atomic.make 0;
                b_slot0 = -1;
              }
          end)
        ranges
    in
    ({ Partition.blocks; spans }, planned)
  end

let default_prune () = Sys.getenv_opt "RTLB_SOA_NO_PRUNE" = None

(* The full lower-bound pass: plan (partition + points + theta_max),
   one flat work array at (block, left endpoint) granularity through
   the pool, then a fold in plan order with [Lower_bound.merge_scans]. *)
let bounds ?prune ?pool ?deadline_ns ?tracer t =
  let prune = match prune with Some p -> p | None -> default_prune () in
  let tr = Option.value tracer ~default:Rtlb_obs.Tracer.null in
  let nr = Array.length t.res_names in
  let plans =
    Rtlb_obs.Tracer.with_span tr "plan" (fun () ->
        Array.init nr (fun r_idx -> plan_resource t ~prune r_idx))
  in
  let n_items = ref 0 in
  Array.iter
    (fun (_, blks) ->
      List.iter
        (fun b ->
          b.b_slot0 <- !n_items;
          n_items := !n_items + Array.length b.b_pts - 1)
        blks)
    plans;
  let dummy =
    {
      b_res = 0;
      b_ids = [||];
      b_w = [||];
      b_pts = [||];
      b_tmax = [||];
      b_inc = Atomic.make 0;
      b_slot0 = 0;
    }
  in
  let work = Array.make (max 1 !n_items) (dummy, 0) in
  let work = if !n_items = 0 then [||] else work in
  Array.iter
    (fun (_, blks) ->
      List.iter
        (fun b ->
          for a = 0 to Array.length b.b_pts - 2 do
            work.(b.b_slot0 + a) <- (b, a)
          done)
        blks)
    plans;
  if Rtlb_obs.Tracer.enabled tr then
    Rtlb_obs.Tracer.add tr Rtlb_obs.Tracer.Candidate_intervals
      (Array.fold_left
         (fun acc (b, a) -> acc + (Array.length b.b_pts - 1 - a))
         0 work);
  let scanned, _status =
    Rtlb_par.Pool.map_array_partial ?pool ?deadline_ns ~tracer:tr
      (fun (b, a) -> scan_item t ~prune ~tr b a)
      work
  in
  let executed = ref 0 in
  let bounds =
    Rtlb_obs.Tracer.with_span tr "reduce" (fun () ->
        Array.to_list
          (Array.mapi
             (fun r_idx (partition, blks) ->
               let acc = ref (0, None) in
               List.iter
                 (fun b ->
                   for k = 0 to Array.length b.b_pts - 2 do
                     match scanned.(b.b_slot0 + k) with
                     | Some s ->
                         incr executed;
                         acc := Lower_bound.merge_scans !acc s
                     | None -> ()
                   done)
                 blks;
               let lb, witness = !acc in
               {
                 Lower_bound.resource = t.res_names.(r_idx);
                 lb;
                 witness;
                 partition;
               })
             plans))
  in
  let completeness =
    if !executed = !n_items then `Complete
    else `Partial (float_of_int !executed /. float_of_int !n_items)
  in
  (bounds, completeness)

(* One unpruned block scan by resource name and member list, for the
   incremental engine's live blocks: same kernel, no incumbent. *)
let scan_from t ~resource ids pts a =
  let r_idx = ref (-1) in
  Array.iteri
    (fun k r -> if String.equal r resource then r_idx := k)
    t.res_names;
  if !r_idx < 0 then (0, None)
  else begin
    let m0 = t.res_off.{!r_idx} and m1 = t.res_off.{!r_idx + 1} in
    let unit_of i =
      (* members are id-ascending: binary search the CSR slice *)
      let lo = ref m0 and hi = ref (m1 - 1) and u = ref 0 in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let v = t.res_task.{mid} in
        if v = i then begin
          u := t.res_units.{mid};
          lo := !hi + 1
        end
        else if v < i then lo := mid + 1
        else hi := mid - 1
      done;
      !u
    in
    let ids = Array.of_list ids in
    let w = Array.map unit_of ids in
    let blk =
      {
        b_res = !r_idx;
        b_ids = ids;
        b_w = w;
        b_pts = pts;
        b_tmax = [||];
        b_inc = Atomic.make 0;
        b_slot0 = 0;
      }
    in
    scan_item t ~prune:false ~tr:Rtlb_obs.Tracer.null blk a
  end
