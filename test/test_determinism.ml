(* Double-run determinism: the writegather bench, run twice inside one
   process with the Reset registry fired in between, must render byte
   for byte the same JSON. This is the property the @lint rules exist
   to protect — any wall-clock read, unseeded RNG, hash-order leak or
   stale process-global between runs shows up here as a byte diff. *)

open Nfsg_sim
module Json = Nfsg_stats.Json

(* Small enough to stay sub-second, large enough that gathering,
   clustering and the metadata-flush ledger all engage. *)
let bench_total = 512 * 1024

let run_once () =
  Reset.run_all ();
  Json.to_string ~pretty:true
    (Nfsg_experiments.Experiments.bench_writegather ~total:bench_total ())

let check_same_bytes first second =
  if not (String.equal first second) then begin
    (* Point at the first differing line rather than dumping both blobs. *)
    let la = String.split_on_char '\n' first and lb = String.split_on_char '\n' second in
    let rec first_diff i = function
      | a :: ta, b :: tb -> if String.equal a b then first_diff (i + 1) (ta, tb) else (i, a, b)
      | a :: _, [] -> (i, a, "<end of second run>")
      | [], b :: _ -> (i, "<end of first run>", b)
      | [], [] -> (i, "", "")
    in
    let line, a, b = first_diff 1 (la, lb) in
    Alcotest.failf "double-run JSON diverges at line %d:\n  run 1: %s\n  run 2: %s" line a b
  end

let test_double_run () = check_same_bytes (run_once ()) (run_once ())

(* Same property for the committed scheduler-comparison artifact: three
   whole worlds per run (one per policy), byte for byte. *)
let run_iosched_once () =
  Reset.run_all ();
  Json.to_string ~pretty:true (Nfsg_experiments.Iosched.bench_iosched ())

let test_double_run_iosched () =
  check_same_bytes (run_iosched_once ()) (run_iosched_once ())

(* And for the committed redundancy artifact: six worlds per run (level
   x gathering), each with a member failure and an online rebuild. *)
let run_raid_once () =
  Reset.run_all ();
  Json.to_string ~pretty:true (Nfsg_experiments.Raid.bench_raid ())

let test_double_run_raid () = check_same_bytes (run_raid_once ()) (run_raid_once ())

(* The registry itself: exactly the state that must be process-wide.
   Configuration is passed as values, so it has no hook here. The
   probes the tests below register are left out. *)
let test_reset_hooks_present () =
  let names =
    List.filter (fun n -> not (String.starts_with ~prefix:"test." n)) (Reset.names ())
  in
  Alcotest.(check (list string)) "registered hooks"
    [ "engine.current_name"; "io.next_tag"; "rig.metrics_sink"; "server.boot_counter" ]
    names

(* Configuration passed as a value reaches every world an experiment
   builds: a long-op threshold set through [adjust] arms journey
   tracing in each server, and the rig dumps what the ring trapped
   through the emit callback. Without the threshold, nothing. *)
let long_op_dump threshold =
  Reset.run_all ();
  let out = Buffer.create 1024 in
  let adjust spec =
    {
      spec with
      Nfsg_experiments.Rig.long_op_threshold = threshold;
      monitor_emit = Some (Buffer.add_string out);
    }
  in
  ignore (Nfsg_experiments.Experiments.figure1 ~adjust ());
  Buffer.contents out

let test_adjust_reaches_worlds () =
  let armed = long_op_dump (Some (Time.us 1)) in
  Alcotest.(check bool) "long-op records emitted" true
    (String.starts_with ~prefix:"long-op records:\n" armed);
  Alcotest.(check string) "nothing emitted without a threshold" "" (long_op_dump None)

let test_reset_duplicate_rejected () =
  Reset.register ~name:"test.determinism.dup" (fun () -> ());
  Alcotest.check_raises "duplicate hook name"
    (Invalid_argument "Reset.register: duplicate hook test.determinism.dup") (fun () ->
      Reset.register ~name:"test.determinism.dup" (fun () -> ()))

let test_reset_runs_hooks () =
  let hit = ref false in
  Reset.register ~name:"test.determinism.probe" (fun () -> hit := true);
  Reset.run_all ();
  Alcotest.(check bool) "hook ran" true !hit

let suite =
  [
    Alcotest.test_case "writegather bench twice, same bytes" `Quick test_double_run;
    Alcotest.test_case "iosched bench twice, same bytes" `Quick test_double_run_iosched;
    Alcotest.test_case "raid bench twice, same bytes" `Quick test_double_run_raid;
    Alcotest.test_case "expected reset hooks registered" `Quick test_reset_hooks_present;
    Alcotest.test_case "adjust reaches every world" `Quick test_adjust_reaches_worlds;
    Alcotest.test_case "duplicate reset hook rejected" `Quick test_reset_duplicate_rejected;
    Alcotest.test_case "run_all fires hooks" `Quick test_reset_runs_hooks;
  ]
