(* Double-run determinism: each committed bench, run twice back to back
   inside one process with nothing reset in between, must render byte
   for byte the same JSON. This is the property the @lint rules exist
   to protect — any wall-clock read, unseeded RNG, hash-order leak or
   stale process-global between runs shows up here as a byte diff.
   The second pass runs with a shared metrics sink installed that
   already holds one run's instruments, as [nfsgather --metrics-json]
   leaves it after earlier experiments: a world that reads its own
   instruments must not see the sink. *)

open Nfsg_sim
module Json = Nfsg_stats.Json
module Rig = Nfsg_experiments.Rig

let render ?sink bench =
  Rig.set_metrics_sink sink;
  Fun.protect
    ~finally:(fun () -> Rig.set_metrics_sink None)
    (fun () -> Json.to_string ~pretty:true (bench ()))

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

let double_run bench =
  let first = render bench in
  let sink = Nfsg_stats.Metrics.create () in
  ignore (render ~sink bench : string);
  check_same_bytes first (render ~sink bench)

(* Small enough to stay sub-second, large enough that gathering,
   clustering and the metadata-flush ledger all engage. *)
let bench_total = 512 * 1024

let test_double_run () =
  double_run (Nfsg_experiments.Experiments.bench_writegather ~total:bench_total)

(* Same property for the committed scheduler-comparison artifact: three
   whole worlds per run (one per policy), byte for byte. *)
let test_double_run_iosched () = double_run Nfsg_experiments.Iosched.bench_iosched

(* And for the committed redundancy artifact: six worlds per run (level
   x gathering), each with a member failure and an online rebuild. *)
let test_double_run_raid () = double_run Nfsg_experiments.Raid.bench_raid

(* And for the 3-export artifact: a clean world and its faulted twin. *)
let test_double_run_multivolume () = double_run Nfsg_experiments.Multivolume.bench_multivolume

(* Configuration passed as a value reaches every world an experiment
   builds: a long-op threshold set through [adjust] arms journey
   tracing in each server, and the rig dumps what the ring trapped
   through the emit callback. Without the threshold, nothing. *)
let long_op_dump threshold =
  let out = Buffer.create 1024 in
  let adjust spec =
    {
      spec with
      Rig.long_op_threshold = threshold;
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

let suite =
  [
    Alcotest.test_case "writegather bench twice, same bytes" `Quick test_double_run;
    Alcotest.test_case "iosched bench twice, same bytes" `Quick test_double_run_iosched;
    Alcotest.test_case "raid bench twice, same bytes" `Quick test_double_run_raid;
    Alcotest.test_case "multivolume bench twice, same bytes" `Quick test_double_run_multivolume;
    Alcotest.test_case "adjust reaches every world" `Quick test_adjust_reaches_worlds;
  ]
