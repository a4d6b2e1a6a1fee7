open Nfsg_sim
module Lc = Nfsg_experiments.Laddis_curve
module Laddis = Nfsg_workload.Laddis
module Json = Nfsg_stats.Json

(* {1 Knee detection and capacity rating on synthetic curves} *)

(* A textbook curve: tracks the offered load, then sags. *)
let synthetic =
  [ (60.0, 59.0); (120.0, 118.0); (180.0, 175.0); (240.0, 190.0); (300.0, 188.0) ]

let test_detect_knee () =
  Alcotest.(check (option int)) "knee at the first sagging rung" (Some 3)
    (Lc.detect_knee ~frac:0.9 synthetic);
  Alcotest.(check (option int)) "stricter frac knees earlier" (Some 2)
    (Lc.detect_knee ~frac:0.98 synthetic);
  Alcotest.(check (option int)) "lax frac never knees" None
    (Lc.detect_knee ~frac:0.6 synthetic);
  Alcotest.(check (option int)) "empty ladder has no knee" None (Lc.detect_knee ~frac:0.9 []);
  Alcotest.(check (option int)) "sagging from rung one" (Some 0)
    (Lc.detect_knee ~frac:0.9 [ (100.0, 50.0) ])

let test_capacity_rating () =
  Alcotest.(check (float 1e-9)) "best sustained rung" 175.0
    (Lc.capacity_rating ~frac:0.9 synthetic);
  (* Every rung sagged: rated at what it actually delivered. *)
  Alcotest.(check (float 1e-9)) "all-sagged fallback" 55.0
    (Lc.capacity_rating ~frac:0.9 [ (100.0, 50.0); (200.0, 55.0) ]);
  Alcotest.(check (float 1e-9)) "empty ladder rates zero" 0.0 (Lc.capacity_rating ~frac:0.9 [])

let test_procs_for () =
  Alcotest.(check int) "floor of four stations" 4 (Lc.procs_for ~procs_max:48 10.0);
  Alcotest.(check int) "one station per ~10 ops/s" 24 (Lc.procs_for ~procs_max:48 240.0);
  Alcotest.(check int) "clamped to the pool ceiling" 48 (Lc.procs_for ~procs_max:48 600.0)

let test_grid_override_validates () =
  Alcotest.check_raises "unknown label rejected"
    (Invalid_argument "Laddis_curve: unknown configuration \"warp9\"") (fun () ->
      ignore (Lc.grid_of_labels [ "warp9" ]))

(* {1 Double-run byte-determinism}

   The real sweep, shrunk: two configurations, two rungs, short
   windows. Same property as the other committed artifacts — two runs
   back to back inside one process must render byte for byte the same
   JSON. The grid restriction and ladder caps are passed
   as values, the same path the nfsgather flags use. *)

let tiny_sweep =
  {
    Lc.default_sweep with
    Lc.max_points = 2;
    procs_max = 8;
    load = { Lc.default_sweep.Lc.load with Laddis.warmup = Time.ms 100; measure = Time.ms 400 };
    nfsds = 8;
  }

let run_once () =
  Lc.bench_laddis_curve ~sweep:tiny_sweep ~grid:(Lc.grid_of_labels [ "baseline"; "gather" ]) ()

let test_double_run () =
  let first = run_once () and second = run_once () in
  Alcotest.(check bool) "byte-identical across back-to-back runs" true
    (String.equal (Json.to_string ~pretty:true first) (Json.to_string ~pretty:true second));
  (* And the restriction really took. *)
  let labels =
    match Option.bind (Json.member "configs" first) Json.to_list with
    | Some configs -> List.filter_map (fun c -> Option.bind (Json.member "config" c) Json.to_str) configs
    | None -> []
  in
  Alcotest.(check (list string)) "grid restricted" [ "baseline"; "gather" ] labels

(* {1 The rung walker and the Figure 2/3 rendering} *)

(* A rung offered far past what one spindle serves: it always sags. *)
let sagging_rungs = [ (5000.0, 4); (5000.0, 4) ]

let small_load =
  {
    Laddis.default_config with
    Laddis.files_per_proc = 1;
    file_size = 16 * 1024;
    warmup = Time.ms 100;
    measure = Time.ms 300;
  }

let baseline = List.hd (Lc.grid_of_labels [ "baseline" ])

let test_walk_without_cut () =
  let c = Lc.walk ~frac:0.0 ~load:small_load ~rungs:sagging_rungs baseline in
  Alcotest.(check int) "both rungs kept" 2 (List.length c.Lc.points);
  let first = List.hd c.Lc.points in
  Alcotest.(check bool) "first rung sags" true (first.Laddis.achieved < 0.9 *. first.Laddis.offered);
  Alcotest.(check (option int)) "no knee at frac 0" None c.Lc.knee;
  Alcotest.(check (float 1e-9)) "capacity is the best rung"
    (List.fold_left (fun a p -> Float.max a p.Laddis.achieved) 0.0 c.Lc.points)
    c.Lc.capacity

let test_walk_stops_at_knee () =
  let c = Lc.walk ~frac:0.9 ~load:small_load ~rungs:sagging_rungs baseline in
  Alcotest.(check int) "stops after the sagging rung" 1 (List.length c.Lc.points);
  Alcotest.(check (option int)) "knee at the kept rung" (Some 0) c.Lc.knee

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let hand_curve label points =
  let points =
    List.map
      (fun (offered, achieved, avg_latency_ms) ->
        { Laddis.offered; achieved; avg_latency_ms; ops_completed = 0 })
      points
  in
  let oa = List.map (fun p -> (p.Laddis.offered, p.Laddis.achieved)) points in
  {
    Lc.label;
    spec = baseline.Lc.spec;
    points;
    knee = None;
    capacity = Lc.capacity_rating ~frac:0.0 oa;
  }

let test_render_laddis () =
  let without =
    hand_curve "WITHOUT"
      [ (100.0, 90.0, 10.0); (200.0, 150.0, 20.0); (300.0, 150.0, 30.0); (400.0, 140.0, 40.0) ]
  and with_ = hand_curve "WITH" [ (100.0, 95.0, 5.0); (200.0, 180.0, 8.0); (300.0, 170.0, 12.0) ] in
  let out = Nfsg_experiments.Experiments.render_laddis ~title:"Figure" (without, with_) in
  let has line = Alcotest.(check bool) line true (contains out line) in
  has "Figure\n  WITHOUT\n";
  has "               400            140.0            40.00\n";
  (* The peak is the first rung with the highest achieved rate. *)
  has "peak throughput: 150.0 ops/s at 20.00 ms avg latency";
  has "peak throughput: 180.0 ops/s at 8.00 ms avg latency";
  has "  capacity change with gathering: +20.0%\n"

let suite =
  [
    Alcotest.test_case "knee detection on synthetic curves" `Quick test_detect_knee;
    Alcotest.test_case "capacity rating" `Quick test_capacity_rating;
    Alcotest.test_case "station pool scales with offered load" `Quick test_procs_for;
    Alcotest.test_case "grid override validates labels" `Quick test_grid_override_validates;
    Alcotest.test_case "tiny sweep is double-run deterministic" `Quick test_double_run;
    Alcotest.test_case "walk at frac 0 keeps every rung" `Quick test_walk_without_cut;
    Alcotest.test_case "walk stops after the sagging rung" `Quick test_walk_stops_at_knee;
    Alcotest.test_case "Figure 2/3 rendering: peak and capacity change" `Quick test_render_laddis;
  ]
