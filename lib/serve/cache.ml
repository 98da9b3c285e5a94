(* Fingerprint-keyed LRU cache of warm incremental handles.

   Handles are *checked out* (removed) while a request uses them and
   checked back in afterwards, so a handle is only ever touched by one
   worker at a time — required because the analysis engine mutates its
   packed arrays in place.  A request that crashes mid-use simply never
   checks its handle back in: the cache cannot be poisoned by a
   half-mutated handle, at the price of rebuilding it on the next miss
   (counted as an eviction). *)

type entry = { e_key : string; e_handle : Rtlb.Incremental.t }

type t = {
  capacity : int;
  tracer : Rtlb_obs.Tracer.t;
  mutex : Mutex.t;
  mutable entries : entry list;  (* most recently used first *)
}

let create ?(tracer = Rtlb_obs.Tracer.null) ~capacity () =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  { capacity; tracer; mutex = Mutex.create (); entries = [] }

let capacity t = t.capacity

let length t =
  Mutex.lock t.mutex;
  let n = List.length t.entries in
  Mutex.unlock t.mutex;
  n

let key system app = Rtlb.Incremental.instance_fingerprint system app

let mem t k =
  Mutex.lock t.mutex;
  let found = List.exists (fun e -> e.e_key = k) t.entries in
  Mutex.unlock t.mutex;
  found

let checkout t k =
  Mutex.lock t.mutex;
  let found = ref None in
  t.entries <-
    List.filter
      (fun e ->
        if !found = None && e.e_key = k then (
          found := Some e.e_handle;
          false)
        else true)
      t.entries;
  Mutex.unlock t.mutex;
  !found

let checkin t k handle =
  Mutex.lock t.mutex;
  let survivors = List.filter (fun e -> e.e_key <> k) t.entries in
  let entries = { e_key = k; e_handle = handle } :: survivors in
  let rec take n = function
    | [] -> ([], 0)
    | _ :: rest when n = 0 -> ([], 1 + List.length rest)
    | e :: rest ->
        let kept, evicted = take (n - 1) rest in
        (e :: kept, evicted)
  in
  let kept, evicted = take t.capacity entries in
  t.entries <- kept;
  Mutex.unlock t.mutex;
  if evicted > 0 then Rtlb_obs.Tracer.add t.tracer Rtlb_obs.Tracer.Evictions evicted

let discard t =
  Rtlb_obs.Tracer.add t.tracer Rtlb_obs.Tracer.Evictions 1
