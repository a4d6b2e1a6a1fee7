open Nfsg_sim
open Nfsg_disk

let small_geometry =
  { (Disk.rz26 ~capacity:(16 * 1024 * 1024) ()) with Disk.track_bytes = 256 * 1024 }

let with_disk f =
  let eng = Engine.create () in
  let dev = Disk.create eng small_geometry in
  let result = ref None in
  Engine.spawn eng ~name:"test-driver" (fun () -> result := Some (f eng dev));
  Engine.run eng;
  match !result with Some r -> r | None -> Alcotest.fail "test process did not finish"

let test_write_read_roundtrip () =
  with_disk (fun _eng dev ->
      let data = Bytes.init 8192 (fun i -> Char.chr (i mod 256)) in
      dev.Device.write ~off:32768 data;
      let back = dev.Device.read ~off:32768 ~len:8192 in
      Alcotest.(check bytes) "roundtrip" data back)

let test_write_takes_time () =
  with_disk (fun eng dev ->
      let t0 = Engine.now eng in
      dev.Device.write ~off:0 (Bytes.make 8192 'x');
      let elapsed = Engine.now eng - t0 in
      if elapsed <= 0 then Alcotest.fail "write took no time";
      (* 8K at 2.6MB/s is ~3.1ms of transfer alone; with overhead and
         rotation it must be within one rotation + full seek. *)
      if elapsed < Time.of_ms_f 3.0 then Alcotest.failf "implausibly fast: %dns" elapsed;
      if elapsed > Time.of_ms_f 40.0 then Alcotest.failf "implausibly slow: %dns" elapsed)

let test_larger_writes_amortise () =
  (* One 64K transaction must beat eight 8K transactions. *)
  let time_of n size =
    with_disk (fun eng dev ->
        let t0 = Engine.now eng in
        for i = 0 to n - 1 do
          dev.Device.write ~off:(i * size) (Bytes.make size 'x')
        done;
        Engine.now eng - t0)
  in
  let eight_small = time_of 8 8192 in
  let one_big = time_of 1 65536 in
  if one_big * 2 > eight_small then
    Alcotest.failf "clustering not worth it: 64K=%dns vs 8x8K=%dns" one_big eight_small

let test_sequential_beats_random () =
  let sequential =
    with_disk (fun eng dev ->
        let t0 = Engine.now eng in
        for i = 0 to 19 do
          dev.Device.write ~off:(i * 8192) (Bytes.make 8192 'x')
        done;
        Engine.now eng - t0)
  in
  let random =
    with_disk (fun eng dev ->
        let rng = Rng.create 99 in
        let t0 = Engine.now eng in
        for _ = 0 to 19 do
          let blk = Rng.int rng 2000 in
          dev.Device.write ~off:(blk * 8192) (Bytes.make 8192 'x')
        done;
        Engine.now eng - t0)
  in
  if sequential >= random then
    Alcotest.failf "seeks are free? seq=%dns rand=%dns" sequential random

let test_stats_accounting () =
  with_disk (fun _eng dev ->
      dev.Device.write ~off:0 (Bytes.make 8192 'a');
      dev.Device.write ~off:8192 (Bytes.make 8192 'b');
      let _ = dev.Device.read ~off:0 ~len:8192 in
      let s = dev.Device.spindle_stats () in
      Alcotest.(check int) "3 transactions" 3 s.Device.transactions;
      Alcotest.(check int) "bytes" (3 * 8192) s.Device.bytes_moved;
      if s.Device.busy_time <= 0 then Alcotest.fail "no busy time recorded")

let test_fifo_queueing () =
  (* Two writes issued together complete in issue order, and the
     second finishes after the first. *)
  let eng = Engine.create () in
  let dev = Disk.create eng small_geometry in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      dev.Device.write ~off:0 (Bytes.make 8192 'a');
      order := ("a", Engine.now eng) :: !order);
  Engine.spawn eng (fun () ->
      dev.Device.write ~off:1_000_000 (Bytes.make 8192 'b');
      order := ("b", Engine.now eng) :: !order);
  Engine.run eng;
  match List.rev !order with
  | [ ("a", ta); ("b", tb) ] -> if tb <= ta then Alcotest.fail "b finished before a"
  | _ -> Alcotest.fail "unexpected completion order"

let test_crash_drops_inflight () =
  let eng = Engine.create () in
  let dev = Disk.create eng small_geometry in
  let completed = ref false in
  Engine.spawn eng (fun () ->
      dev.Device.write ~off:0 (Bytes.make 8192 'x');
      completed := true);
  (* Crash long before any plausible service time has elapsed. *)
  Engine.schedule eng ~after:(Time.us 100) (fun () -> dev.Device.crash ());
  Engine.run eng;
  Alcotest.(check bool) "write never completed" false !completed;
  let stable = dev.Device.stable_read ~off:0 ~len:8192 in
  Alcotest.(check bytes) "platter untouched" (Bytes.make 8192 '\000') stable

let test_stable_write_instant () =
  let eng = Engine.create () in
  let dev = Disk.create eng small_geometry in
  dev.Device.stable_write ~off:4096 (Bytes.of_string "seed");
  Alcotest.(check bytes) "visible" (Bytes.of_string "seed") (dev.Device.stable_read ~off:4096 ~len:4);
  Alcotest.(check int) "no simulated time" 0 (Engine.now eng);
  Alcotest.(check int) "no transactions" 0 (dev.Device.spindle_stats ()).Device.transactions

let test_out_of_range_rejected () =
  with_disk (fun _eng dev ->
      match dev.Device.write ~off:(dev.Device.capacity - 100) (Bytes.make 8192 'x') with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let test_elevator_beats_fifo_on_random_load () =
  let total_time scheduler =
    let eng = Engine.create () in
    let dev = Disk.create eng ~scheduler small_geometry in
    let rng = Rng.create 2024 in
    let offs = List.init 40 (fun _ -> Rng.int rng 1800 * 8192) in
    let done_count = ref 0 in
    (* Issue everything at t=0 so the queue is deep enough to sort. *)
    List.iter
      (fun off ->
        Engine.spawn eng (fun () ->
            dev.Device.write ~off (Bytes.make 8192 'e');
            incr done_count))
      offs;
    Engine.run eng;
    Alcotest.(check int) "all served" 40 !done_count;
    Engine.now eng
  in
  let fifo = total_time Disk.Fifo and elev = total_time Disk.Elevator in
  if elev >= fifo then Alcotest.failf "elevator no better: fifo=%dns elevator=%dns" fifo elev

let test_elevator_preserves_data () =
  let eng = Engine.create () in
  let dev = Disk.create eng ~scheduler:Disk.Elevator small_geometry in
  let rng = Rng.create 7 in
  let blocks = List.init 30 (fun i -> (Rng.int rng 1000, i)) in
  let remaining = ref (List.length blocks) in
  List.iter
    (fun (blk, i) ->
      Engine.spawn eng (fun () ->
          dev.Device.write ~off:(blk * 8192) (Bytes.make 8192 (Char.chr (65 + (i mod 26))));
          decr remaining))
    blocks;
  Engine.run eng;
  Alcotest.(check int) "all writes served" 0 !remaining;
  (* Reordering must never invent or lose bytes: every written block
     holds exactly one writer's fill byte. *)
  List.iter
    (fun (blk, _) ->
      let b = dev.Device.stable_read ~off:(blk * 8192) ~len:8192 in
      let c = Bytes.get b 0 in
      if c < 'A' || c > 'Z' then Alcotest.failf "block %d has garbage %C" blk c;
      if b <> Bytes.make 8192 c then Alcotest.failf "block %d mixed contents" blk)
    blocks

let test_seek_time_monotone () =
  let g = small_geometry in
  let t1 = Disk.seek_time g ~cylinders:100 ~distance:1 in
  let t50 = Disk.seek_time g ~cylinders:100 ~distance:50 in
  let t99 = Disk.seek_time g ~cylinders:100 ~distance:99 in
  Alcotest.(check int) "zero distance is free" 0 (Disk.seek_time g ~cylinders:100 ~distance:0);
  if not (t1 < t50 && t50 < t99) then Alcotest.fail "seek time not monotone";
  if t1 < g.Disk.seek_single then Alcotest.fail "short seek below track-to-track time"

(* {1 Sparse platter}

   The platter is paged (64 KiB pages allocated on first write), which
   must be invisible: never-written bytes read as zeros, requests that
   straddle a page boundary round-trip, and a crash still drops a
   transaction whole. *)

let page = 64 * 1024
let zeros n = Bytes.make n '\000'
let pattern n seed = Bytes.init n (fun i -> Char.chr (33 + ((i * 7) + seed) mod 90))

let test_unwritten_reads_zero () =
  with_disk (fun _eng dev ->
      (* Write the tail of page 0 only, so one read spans a written and a
         never-written page. *)
      let tail = pattern 4096 1 in
      dev.Device.write ~off:(page - 4096) tail;
      Alcotest.(check bytes) "scheduled read, never-written page" (zeros 8192)
        (dev.Device.read ~off:(5 * page) ~len:8192);
      Alcotest.(check bytes) "stable_read, never-written page" (zeros 8192)
        (dev.Device.stable_read ~off:(5 * page) ~len:8192);
      let want = Bytes.cat tail (zeros 4096) in
      Alcotest.(check bytes) "scheduled read, written then unwritten" want
        (dev.Device.read ~off:(page - 4096) ~len:8192);
      Alcotest.(check bytes) "stable_read, written then unwritten" want
        (dev.Device.stable_read ~off:(page - 4096) ~len:8192))

let test_page_straddle_roundtrip () =
  with_disk (fun _eng dev ->
      (* 24 KiB across the page 0/1 boundary through the scheduler. *)
      let a = pattern (24 * 1024) 2 and a_off = page - 8192 in
      dev.Device.write ~off:a_off a;
      Alcotest.(check bytes) "scheduled write, scheduled read" a
        (dev.Device.read ~off:a_off ~len:(Bytes.length a));
      Alcotest.(check bytes) "scheduled write, stable_read" a
        (dev.Device.stable_read ~off:a_off ~len:(Bytes.length a));
      (* An unaligned span across three pages, bypassing the queue. *)
      let b = pattern ((2 * page) + 300) 3 and b_off = (3 * page) - 100 in
      dev.Device.stable_write ~off:b_off b;
      Alcotest.(check bytes) "stable_write, stable_read" b
        (dev.Device.stable_read ~off:b_off ~len:(Bytes.length b));
      Alcotest.(check bytes) "stable_write, scheduled read" b
        (dev.Device.read ~off:b_off ~len:(Bytes.length b));
      (* The neighbours of both spans are untouched. *)
      Alcotest.(check bytes) "before the first span" (zeros 64) (dev.Device.stable_read ~off:(a_off - 64) ~len:64);
      Alcotest.(check bytes) "after the second span" (zeros 64)
        (dev.Device.stable_read ~off:(b_off + Bytes.length b) ~len:64))

let test_crash_mid_transaction_keeps_old () =
  let eng = Engine.create () in
  let dev = Disk.create eng small_geometry in
  (* An 8 KiB range across a page boundary, holding known bytes. *)
  let off = page - 4096 and old = pattern 8192 4 in
  dev.Device.stable_write ~off old;
  let completed = ref false in
  Engine.spawn eng (fun () ->
      dev.Device.write ~off (pattern 8192 5);
      completed := true);
  (* The overwrite is in service (command overhead alone is 500 us). *)
  Engine.schedule eng ~after:(Time.us 100) (fun () -> dev.Device.crash ());
  Engine.run eng;
  Alcotest.(check bool) "overwrite never completed" false !completed;
  Alcotest.(check bytes) "stable_read sees the old bytes" old (dev.Device.stable_read ~off ~len:8192);
  dev.Device.recover ();
  let back = ref None in
  Engine.spawn eng (fun () -> back := Some (dev.Device.read ~off ~len:8192));
  Engine.run eng;
  Alcotest.(check (option bytes)) "scheduled read after recovery sees the old bytes" (Some old) !back

let test_create_allocates_little () =
  (* A dense platter (96 MiB for this geometry) would trip this at
     once. *)
  let eng = Engine.create () in
  let _dev, bytes =
    Testbed.allocated_bytes (fun () -> Disk.create eng Nfsg_experiments.Calib.disk_geometry)
  in
  if bytes >= 1048576.0 then Alcotest.failf "Disk.create allocated %.0f bytes" bytes

let suite =
  [
    Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "writes take plausible time" `Quick test_write_takes_time;
    Alcotest.test_case "large transfers amortise overhead" `Quick test_larger_writes_amortise;
    Alcotest.test_case "sequential beats random" `Quick test_sequential_beats_random;
    Alcotest.test_case "spindle stats account transactions" `Quick test_stats_accounting;
    Alcotest.test_case "FIFO service order" `Quick test_fifo_queueing;
    Alcotest.test_case "crash drops in-flight write" `Quick test_crash_drops_inflight;
    Alcotest.test_case "stable_write is instantaneous" `Quick test_stable_write_instant;
    Alcotest.test_case "bounds checked" `Quick test_out_of_range_rejected;
    Alcotest.test_case "seek time monotone in distance" `Quick test_seek_time_monotone;
    Alcotest.test_case "elevator beats FIFO on random load" `Quick test_elevator_beats_fifo_on_random_load;
    Alcotest.test_case "elevator preserves data" `Quick test_elevator_preserves_data;
    Alcotest.test_case "unwritten ranges read as zeros" `Quick test_unwritten_reads_zero;
    Alcotest.test_case "page-straddling requests round-trip" `Quick test_page_straddle_roundtrip;
    Alcotest.test_case "crash mid-transaction keeps old bytes" `Quick test_crash_mid_transaction_keeps_old;
    Alcotest.test_case "create allocates under 1 MiB" `Quick test_create_allocates_little;
  ]
