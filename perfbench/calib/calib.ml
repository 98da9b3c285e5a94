(* A fixed amount of stdlib-only work -- allocation, sorting, hashing,
   list building, integer printing -- whose wall time tracks how fast
   the host runs OCaml code right now.  It links no rtlb library, so a
   change to the program under test cannot move it.  It prints a
   checksum so the benchmark can tell that the work was done.

   calib.exe        does the work once and exits (a fresh process,
                    like one CLI invocation);
   calib.exe loop   does it once per line read from stdin (a warm,
                    long-lived process, like the serve daemon). *)

let work () =
  let n = 12_000 in
  let st = Random.State.make [| 42 |] in
  let a = Array.init n (fun _ -> Random.State.int st 1_000_000) in
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for r = 0 to 3 do
    let b = Array.copy a in
    Array.sort compare b;
    Array.iter (fun x -> Hashtbl.replace h (x land 65535) (x + r)) b;
    let l = List.rev_map (fun x -> (x, string_of_int x)) (Array.to_list b) in
    acc := List.fold_left (fun s (x, str) -> s + x + String.length str) !acc l
  done;
  Printf.printf "%d %d\n%!" !acc (Hashtbl.length h)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "loop" then
    try
      while true do
        ignore (input_line stdin);
        work ()
      done
    with End_of_file -> ()
  else work ()
