(* Tests for table rendering and the appfile format. *)

open Helpers

let table_rendering () =
  let t = Rtfmt.Table.create [ "task"; "E"; "L" ] in
  Rtfmt.Table.add_row t [ "T1"; "0"; "3" ];
  Rtfmt.Table.add_int_row t "T2" [ 0; 6 ];
  Rtfmt.Table.add_separator t;
  Rtfmt.Table.add_row t [ "T15"; "30"; "36" ];
  let out = Rtfmt.Table.render t in
  check_string "rendering"
    "| task |  E |  L |\n\
     |------+----+----|\n\
     | T1   |  0 |  3 |\n\
     | T2   |  0 |  6 |\n\
     |------+----+----|\n\
     | T15  | 30 | 36 |\n"
    out

let table_alignment () =
  let t =
    Rtfmt.Table.create
      ~aligns:[ Rtfmt.Table.Centre; Rtfmt.Table.Left ]
      [ "ab"; "x" ]
  in
  Rtfmt.Table.add_row t [ "y"; "long" ];
  check_string "centre and left" "| ab | x    |\n|----+------|\n| y  | long |\n"
    (Rtfmt.Table.render t)

let table_errors () =
  let t = Rtfmt.Table.create [ "a"; "b" ] in
  Alcotest.check_raises "ragged row"
    (Invalid_argument "Table.add_row: wrong row width") (fun () ->
      Rtfmt.Table.add_row t [ "only-one" ]);
  Alcotest.check_raises "no columns" (Invalid_argument "Table.create: no columns")
    (fun () -> ignore (Rtfmt.Table.create []))

let sample =
  "# demo\n\
   task A compute=3 deadline=20 proc=P1 res=r1\n\
   task B compute=5 release=2 deadline=20 proc=P1 preemptive\n\
   edge A B 4\n\
   shared P1=5 r1=2\n"

let parse_roundtrip () =
  let { Rtfmt.Appfile.app; system } = Rtfmt.Appfile.parse sample in
  check_int "tasks" 2 (Rtlb.App.n_tasks app);
  let a = Rtlb.App.task app 0 and b = Rtlb.App.task app 1 in
  check_string "name" "A" a.Rtlb.Task.name;
  check_int "compute" 3 a.Rtlb.Task.compute;
  Alcotest.(check (list string)) "resources" [ "r1" ] a.Rtlb.Task.resources;
  check_bool "preemptive" true b.Rtlb.Task.preemptive;
  check_int "release" 2 b.Rtlb.Task.release;
  check_int "message" 4 (Rtlb.App.message app ~src:0 ~dst:1);
  (match system with
  | Some s -> check_int "P1 cost" 5 (Rtlb.System.resource_cost s "P1")
  | None -> Alcotest.fail "expected a system");
  (* roundtrip: print then reparse gives the same application *)
  let printed = Rtfmt.Appfile.to_string ?system app in
  let reparsed = Rtfmt.Appfile.parse printed in
  check_string "roundtrip" printed
    (Rtfmt.Appfile.to_string ?system:reparsed.Rtfmt.Appfile.system
       reparsed.Rtfmt.Appfile.app)

let parse_dedicated () =
  let text =
    "task A compute=1 deadline=5 proc=P1 res=r1\n\
     node N1 proc=P1 res=2xr1 cost=7\n"
  in
  let { Rtfmt.Appfile.system; _ } = Rtfmt.Appfile.parse text in
  match system with
  | Some (Rtlb.System.Dedicated [ nt ]) ->
      check_string "name" "N1" nt.Rtlb.System.nt_name;
      check_int "r1 units" 2 (Rtlb.System.node_provides nt "r1");
      check_int "cost" 7 nt.Rtlb.System.nt_cost
  | _ -> Alcotest.fail "expected one node type"

let parse_errors () =
  let expect_error ~line text =
    match Rtfmt.Appfile.parse text with
    | exception Rtfmt.Appfile.Parse_error (l, _) ->
        check_int ("line for " ^ String.escaped text) line l
    | _ -> Alcotest.fail ("expected parse error: " ^ text)
  in
  expect_error ~line:1 "task A proc=P1\n";
  (* missing compute *)
  expect_error ~line:1 "bogus directive\n";
  expect_error ~line:2 "task A compute=1 deadline=5 proc=P\nedge A missing 3\n";
  expect_error ~line:1 "edge A B\n";
  expect_error ~line:1 "task A compute=9 deadline=5 proc=P\n";
  (* infeasible task reported via task check, at the task's own line *)
  expect_error ~line:2
    "task A compute=1 deadline=5 proc=P\n\
     task A compute=1 deadline=5 proc=P\n";
  (* of several bad edges, the first in file order is reported, whatever
     its kind *)
  let two = "task A compute=1 deadline=5 proc=P\ntask B compute=1 deadline=5 proc=P\n" in
  expect_error ~line:4 (two ^ "edge A B 1\nedge A B 2\nedge A ghost 3\nedge B B 0\n");
  expect_error ~line:3 (two ^ "edge A ghost 3\nedge A B 1\nedge A B 2\n");
  expect_error ~line:3 (two ^ "edge B B 0\nedge A B 1\nedge A B 2\n")

let shared_and_nodes_conflict () =
  match
    Rtfmt.Appfile.parse
      "task A compute=1 deadline=5 proc=P\nshared P=1\nnode N proc=P\n"
  with
  | exception Rtfmt.Appfile.Parse_error (_, _) -> ()
  | _ -> Alcotest.fail "expected conflict error"

let paper_example_roundtrip () =
  let app = Rtlb.Paper_example.app in
  let printed = Rtfmt.Appfile.to_string ~system:Rtlb.Paper_example.dedicated app in
  let { Rtfmt.Appfile.app = app'; system } = Rtfmt.Appfile.parse printed in
  check_int "tasks preserved" (Rtlb.App.n_tasks app) (Rtlb.App.n_tasks app');
  Array.iteri
    (fun i t -> check_bool "task equal" true (Rtlb.Task.equal t (Rtlb.App.task app' i)))
    (Rtlb.App.tasks app);
  match system with
  | Some (Rtlb.System.Dedicated nts) -> check_int "node types" 3 (List.length nts)
  | _ -> Alcotest.fail "expected dedicated system"

let periodic_appfile () =
  let text =
    "task fast period=5 compute=1 proc=P\n\
     task slow period=10 compute=2 deadline=8 proc=P\n\
     edge fast slow 1\n\
     shared P=1\n"
  in
  let { Rtfmt.Appfile.app; system } = Rtfmt.Appfile.parse text in
  (* hyperperiod 10: fast@0, fast@1, slow@0 *)
  check_int "jobs" 3 (Rtlb.App.n_tasks app);
  check_string "job naming" "fast@1" (Rtlb.App.task app 1).Rtlb.Task.name;
  check_int "slow deadline" 8 (Rtlb.App.task app 2).Rtlb.Task.deadline;
  check_int "undersampled edge count" 1 (Dag.n_edges (Rtlb.App.graph app));
  check_bool "system parsed" true (system <> None);
  (* mixing periodic and one-shot tasks is rejected *)
  match
    Rtfmt.Appfile.parse
      "task a period=5 compute=1 proc=P\ntask b compute=1 deadline=9 proc=P\n"
  with
  | exception Rtfmt.Appfile.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected mixing error"

(* CRLF line ends and tabs are whitespace: the twin of [sample] with
   both parses to the same instance. *)
let crlf_and_tabs () =
  let twin =
    String.concat "\r\n"
      (List.map
         (fun l -> String.concat "\t" (String.split_on_char ' ' l))
         (String.split_on_char '\n' sample))
  in
  let a = Rtfmt.Appfile.parse sample and b = Rtfmt.Appfile.parse twin in
  check_bool "same application" true (a.Rtfmt.Appfile.app = b.Rtfmt.Appfile.app);
  check_bool "same system" true (a.Rtfmt.Appfile.system = b.Rtfmt.Appfile.system);
  Alcotest.(check (list string))
    "proc names carry no CR" [ "P1"; "P1" ]
    (Array.to_list (Rtlb.App.tasks b.Rtfmt.Appfile.app)
    |> List.map (fun (t : Rtlb.Task.t) -> t.Rtlb.Task.proc))

(* A key given twice on a task or node line is a located error on both
   paths, not a silent first-wins. *)
let duplicate_keys () =
  let expect ~line ~needle text =
    (match Rtfmt.Appfile.parse text with
    | exception Rtfmt.Appfile.Parse_error (l, m) ->
        check_int ("line for " ^ String.escaped text) line l;
        check_bool (m ^ " names the key") true (string_contains ~needle m)
    | _ -> Alcotest.fail ("expected parse error: " ^ text));
    match Rtfmt.Appfile.parse_spec text with
    | exception Rtfmt.Appfile.Parse_error (l, _) -> check_int "spec line" line l
    | _ -> Alcotest.fail ("parse_spec accepted: " ^ text)
  in
  expect ~line:2 ~needle:"duplicate key compute="
    "task A compute=1 deadline=9 proc=P\n\
     task B compute=1 deadline=9 proc=P compute=5\n";
  expect ~line:2 ~needle:"duplicate key cost="
    "task A compute=1 deadline=9 proc=P\nnode N proc=P cost=1 cost=7\n";
  expect ~line:1 ~needle:"duplicate key res="
    "task A compute=1 deadline=9 proc=P res=r res=s\n";
  (* repeating a resource inside one res= list is a unit count, not a
     duplicate key *)
  let { Rtfmt.Appfile.app; _ } =
    Rtfmt.Appfile.parse "task A compute=1 deadline=9 proc=P res=r,r\n"
  in
  check_int "two units" 2 (Rtlb.Task.units (Rtlb.App.task app 0) "r")

(* The fingerprint keys the serve cache, the journal and checkpoints;
   these values were produced by the Printf-based writer it replaced. *)
let pinned_fingerprints () =
  let fp = Rtlb.Incremental.instance_fingerprint in
  let app = Rtlb.Paper_example.app in
  check_string "shared model" "ac3bea97c2394b81d224cd2f009f908b"
    (fp Rtlb.Paper_example.shared app);
  check_string "dedicated model" "b9e153186f59e2c967dede30e914c3a3"
    (fp Rtlb.Paper_example.dedicated app);
  let path =
    (* dune runtest runs in test/; dune exec runs in the workspace root. *)
    List.find Sys.file_exists
      [ "../examples/paper_example.app"; "examples/paper_example.app" ]
  in
  let { Rtfmt.Appfile.app; system } = Rtfmt.Appfile.parse_file path in
  check_string "shipped file" "ac3bea97c2394b81d224cd2f009f908b"
    (fp (Option.get system) app)

(* Re-lay a printed file without changing a declaration: runs of spaces
   and tabs between words, leading and trailing blanks, trailing
   comments, blank and comment-only lines, CRLF ends, and the edge lines
   moved before the task lines or after the system lines. *)
let with_layout_noise rng text =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' text) in
  let is_edge l = String.length l > 5 && String.sub l 0 5 = "edge " in
  let edges, others = List.partition is_edge lines in
  let lines = if Random.State.bool rng then edges @ others else others @ edges in
  let noisy line =
    let words = String.split_on_char ' ' line in
    let sep () = pick [ " "; "  "; "\t"; " \t "; "\t\t" ] in
    let body =
      List.fold_left
        (fun acc w -> if acc = "" then w else acc ^ sep () ^ w)
        "" words
    in
    let lead = pick [ ""; ""; " "; "\t" ] and trail = pick [ ""; ""; " "; "\t " ] in
    let comment = pick [ ""; ""; ""; " # note"; "\t#x=1 edge" ] in
    lead ^ body ^ trail ^ comment
  in
  let filler () = pick [ ""; "   "; "\t"; "# comment"; "  # task X compute=1" ] in
  let eol = if Random.State.bool rng then "\r\n" else "\n" in
  let out = Buffer.create (String.length text * 2) in
  List.iter
    (fun l ->
      if Random.State.int rng 4 = 0 then begin
        Buffer.add_string out (filler ());
        Buffer.add_string out eol
      end;
      Buffer.add_string out (noisy l);
      Buffer.add_string out eol)
    lines;
  Buffer.contents out

let unlocated ds =
  List.map (fun d -> { d with Rtlb.Validate.d_line = None }) ds

(* Layout noise changes nothing: the same application and system, the
   same fingerprint, and the same diagnostics (none of them errors). *)
let layout_noise_invariant (i, seed) =
  List.for_all
    (fun system ->
      let clean = Rtfmt.Appfile.to_string ~system i.app in
      let noisy = with_layout_noise (Random.State.make [| seed |]) clean in
      let a = Rtfmt.Appfile.parse clean and b = Rtfmt.Appfile.parse noisy in
      let fp t =
        Rtlb.Incremental.instance_fingerprint
          (Option.get t.Rtfmt.Appfile.system) t.Rtfmt.Appfile.app
      in
      let check text = Rtfmt.Appfile.check (Rtfmt.Appfile.parse_spec text) in
      let diags = check noisy in
      a.Rtfmt.Appfile.app = b.Rtfmt.Appfile.app
      && a.Rtfmt.Appfile.system = b.Rtfmt.Appfile.system
      && fp a = fp b
      && Rtlb.Validate.errors diags = []
      && unlocated diags = unlocated (check clean))
    [ shared_of i; dedicated_of i ]

let arb_noise =
  (* printable-ish noise with format keywords sprinkled in, to reach the
     parser's deeper branches *)
  let words =
    [| "task"; "edge"; "node"; "shared"; "compute=3"; "proc=P"; "res=";
       "deadline="; "x"; "=="; "7"; "-1"; "#c"; "periodic"; "period=0";
       "compute=3"; "cost=x"; "res=0xr"; "res=2xr"; "period=5"; "release=-2";
       "deadline=4"; "shared"; "node"; "proc="; "a"; "a" |]
  in
  QCheck.make
    ~print:(fun s -> String.escaped s)
    QCheck.Gen.(
      map (String.concat " ")
        (list_size (int_range 0 30)
           (map (fun i -> words.(i mod Array.length words)) small_nat)))

let prop_tests =
  [
    qtest ~count:500 "parser never crashes, only Parse_error" arb_noise
      (fun text ->
        match Rtfmt.Appfile.parse text with
        | _ -> true
        | exception Rtfmt.Appfile.Parse_error _ -> true
        | exception _ -> false);
    qtest ~count:150 "appfile roundtrips generated instances"
      (QCheck.pair (arb_instance ~max_tasks:16 ()) QCheck.small_nat)
      (fun ((i, _) as case) ->
        let printed = Rtfmt.Appfile.to_string i.app in
        let reparsed = (Rtfmt.Appfile.parse printed).Rtfmt.Appfile.app in
        Rtlb.App.n_tasks reparsed = Rtlb.App.n_tasks i.app
        && Array.for_all2 Rtlb.Task.equal (Rtlb.App.tasks i.app)
             (Rtlb.App.tasks reparsed)
        && Rtfmt.Appfile.to_string reparsed = printed
        && layout_noise_invariant case);
  ]

let suite =
  [
    ( "rtfmt",
      [
        Alcotest.test_case "table rendering" `Quick table_rendering;
        Alcotest.test_case "table alignment" `Quick table_alignment;
        Alcotest.test_case "table errors" `Quick table_errors;
        Alcotest.test_case "parse and roundtrip" `Quick parse_roundtrip;
        Alcotest.test_case "dedicated node parsing" `Quick parse_dedicated;
        Alcotest.test_case "parse errors carry line numbers" `Quick parse_errors;
        Alcotest.test_case "shared/node conflict" `Quick shared_and_nodes_conflict;
        Alcotest.test_case "paper example roundtrips" `Quick
          paper_example_roundtrip;
        Alcotest.test_case "periodic appfile" `Quick periodic_appfile;
        Alcotest.test_case "CRLF and tabs are whitespace" `Quick crlf_and_tabs;
        Alcotest.test_case "duplicate keys are located errors" `Quick
          duplicate_keys;
        Alcotest.test_case "instance fingerprints are pinned" `Quick
          pinned_fingerprints;
      ]
      @ prop_tests );
  ]
