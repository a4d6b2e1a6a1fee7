(* The repo benchmark. Usage (run.sh builds it first):

     bench.exe --workload W --seed N --seconds S --trace 0|1

   runs workload W (gather-copy, sfs-mix or boot-storm) repeatedly for
   about S seconds of host time, each repetition in a fresh child
   process (so the Gc peak of one run cannot carry into the next), and
   prints one JSON object as the last line of stdout: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. A
   traced invocation alternates untraced and traced repetitions, so the
   tracing overhead is their difference.

   Every simulated quantity must come out identical in every
   repetition, traced or not; any difference, any failed operation and
   any failed output check makes the run fail (exit 1, "correct":
   false). See README.md for what each metric means and which workload
   moves it. *)

module W = Workloads
module Stat = Perfbench_stat.Stat
module Names = Nfsg_stats.Names
module Histogram = Nfsg_stats.Histogram
module Time = Nfsg_sim.Time

(* How a value is summarised over repetitions:
   - [Det]: simulated, must be identical in every repetition;
   - [Gc]: host allocation counts, identical across untraced
     repetitions (a traced run allocates its spans too), reported from
     those;
   - [Host]: host time or memory, reported as the median. *)
type kind = Det | Gc | Host

type value = { name : string; unit_ : string; kind : kind; v : float }

(* {1 One repetition (child process)} *)

let ms_of_us x = x /. 1000.0
let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let buckets_of_histogram h =
  List.map (fun (lo, hi, count) -> { Stat.lo; hi; count }) (Histogram.buckets h)

let measure ~workload ~seed ~trace =
  Spans.enabled := trace;
  let r = W.run ~workload ~seed ~trace in
  let w = r.W.window in
  let key ns name = ns ^ "/" ^ name in
  let c ns name = Probe.count w (key ns name) in
  let hd ns name = Probe.hist_delta w (key ns name) in
  let lat p = hd Names.Ns.nfs_client (Names.lat_us p) in
  let disk_ns = Array.to_list (Array.map (fun d -> Names.Ns.disk d.Nfsg_disk.Device.name) r.W.rig.Nfsg_experiments.Rig.disks) in
  let nvram = Names.Ns.nvram "presto" in
  let sim_s = Time.to_sec_f r.W.sim_window in
  let rpc, own =
    match r.W.own_latency with
    | Some h -> (buckets_of_histogram h, true)
    | None ->
        ( (Probe.merged w
             (List.map
                (fun p -> key Names.Ns.nfs_client (Names.lat_us (Nfsg_nfs.Proto.proc_name p)))
                Probe.nfs_procs))
            .Probe.buckets,
          false )
  in
  let n = Stat.total rpc in
  let failed =
    r.W.failed + c Names.Ns.rpc_client Names.timeouts + c Names.Ns.rpc_svc Names.dispatch_errors
    + c Names.Ns.rpc_svc Names.garbage
  in
  let attempted = n + if own then r.W.failed else 0 in
  let over = Stat.frac_above rpc (W.slo_ms *. 1000.0) *. float_of_int n in
  let writes = (lat "WRITE").Probe.n in
  let transactions = Array.fold_left (fun a s -> a + s.Nfsg_disk.Device.transactions) 0 r.W.spindles in
  let bytes = Array.fold_left (fun a s -> a + s.Nfsg_disk.Device.bytes_moved) 0 r.W.spindles in
  let busy =
    Array.fold_left (fun a s -> Float.max a (Time.to_sec_f s.Nfsg_disk.Device.busy_time /. sim_s)) 0.0 r.W.spindles
  in
  let hits = c Names.Ns.read_plane Names.cache_hits and misses = c Names.Ns.read_plane Names.cache_misses in
  let ra_blocks = c Names.Ns.read_plane Names.readahead_blocks in
  let ra_hits = c Names.Ns.read_plane Names.readahead_hits in
  let accepted = c nvram Names.writes_accepted in
  let offered = accepted + c nvram Names.writes_declined + c nvram Names.writes_passthrough in
  let nv_hits = c nvram Names.read_hits in
  let events = r.W.events in
  let g0 = r.W.gc0 and g1 = r.W.gc1 in
  let det name unit_ v = { name; unit_; kind = Det; v } in
  let cnt name v = det name "count" (float_of_int v) in
  let host name unit_ v = { name; unit_; kind = Host; v } in
  let gc name unit_ v = { name; unit_; kind = Gc; v } in
  let proc_lat p =
    let h = lat p in
    [
      det (Printf.sprintf "nfs.%s.p50_ms" p) "ms" (ms_of_us (Stat.quantile h.Probe.buckets 0.5));
      det (Printf.sprintf "nfs.%s.p99_ms" p) "ms" (ms_of_us (Stat.quantile h.Probe.buckets 0.99));
    ]
  in
  let phase p =
    let label = if p = Names.phase_reply then "reply_path" else p in
    det (Printf.sprintf "journey.%s_mean_ms" label) "ms" (ms_of_us (Probe.mean (hd Names.Ns.journey (Names.phase_us p))))
  in
  let merged_disk name = Probe.merged w (List.map (fun ns -> key ns name) disk_ns) in
  let run_s = host "run_s" "s" r.W.host_run in
  let by_mode =
    if trace then begin
      W.disk_create ();
      [
        run_s;
        host "setup.world_s" "s" (Spans.host_seconds "world");
        host "setup.populate_s" "s" (Spans.host_seconds "populate");
        host "setup.disk_create_s" "s" (Spans.host_seconds "Disk.create");
        det "trace.spans" "count" (float_of_int (Spans.count ()));
      ]
    end
    else
      [
        host "setup_s" "s" r.W.host_setup;
        run_s;
        host "peak_heap_mib" "MiB" (float_of_int (g1.W.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
        host "sim.host_ns_per_event" "ns" (r.W.host_run *. 1e9 /. float_of_int (Stdlib.max 1 events));
        gc "sim.alloc_words_per_event" "words" ((g1.W.alloc_words -. g0.W.alloc_words) /. float_of_int (Stdlib.max 1 events));
        gc "sim.promoted_words" "words" (g1.W.promoted_words -. g0.W.promoted_words);
        gc "sim.major_collections" "count" (float_of_int (g1.W.major_collections - g0.W.major_collections));
      ]
  in
  let values =
    by_mode
    @ [
      det "sim_ops_s" "1/s" (float_of_int n /. sim_s);
      det "sim_rpc_p50_ms" "ms" (ms_of_us (Stat.quantile rpc 0.5));
      det "sim_rpc_p99_ms" "ms" (ms_of_us (Stat.quantile rpc 0.99));
      cnt "sim.events" events;
      (* net *)
      cnt "net.datagrams_sent" (c Names.Ns.net Names.datagrams_sent);
      cnt "net.bytes_sent" (c Names.Ns.net Names.bytes_sent);
      cnt "net.datagrams_lost" (c Names.Ns.net Names.datagrams_lost);
      (* rpc *)
      cnt "rpc.calls" (c Names.Ns.rpc_client Names.datagrams_sent - c Names.Ns.rpc_client Names.retransmissions);
      cnt "rpc.retransmissions" (c Names.Ns.rpc_client Names.retransmissions);
      cnt "rpc.timeouts" (c Names.Ns.rpc_client Names.timeouts);
      cnt "rpc.dupcache_replays" (c Names.Ns.rpc_svc Names.duplicate_replays);
      det "rpc.rtt_p99_ms" "ms" (ms_of_us (Stat.quantile (hd Names.Ns.rpc_client Names.rtt_us).Probe.buckets 0.99));
      (* nfs *)
    ]
    @ List.concat_map proc_lat [ "WRITE"; "READ"; "LOOKUP"; "GETATTR" ]
    @ [
        cnt "nfs.wire_writes" r.W.wire_writes;
        cnt "nfs.rpc_samples" n;
        det "nfs.slo_miss_frac" "frac" (Float.min 1.0 ((over +. float_of_int failed) /. float_of_int (Stdlib.max 1 attempted)));
        (* core *)
        det "server.cpu_busy_frac" "frac" (Time.to_sec_f r.W.cpu_busy /. sim_s);
        cnt "write_layer.batches" (c Names.Ns.write_layer Names.batches);
        det "write_layer.batch_size_mean" "count" (Probe.mean (hd Names.Ns.write_layer Names.batch_size));
        cnt "write_layer.metadata_flushes_saved" (c Names.Ns.write_layer Names.metadata_flushes_saved);
        cnt "write_layer.procrastinations" (c Names.Ns.write_layer Names.procrastinations);
        det "write_layer.reply_latency_p99_ms" "ms"
          (ms_of_us (Stat.quantile (hd Names.Ns.write_layer Names.reply_latency_us).Probe.buckets 0.99));
      ]
    @ List.map phase (Names.journey_phases @ [ Names.phase_cache_miss_wait ])
    @ [
        det "journey.total_p99_ms" "ms" (ms_of_us (Stat.quantile (hd Names.Ns.journey Names.total_us).Probe.buckets 0.99));
        (* ufs *)
        det "read_plane.cache_hit_frac" "frac" (frac hits (hits + misses));
        cnt "read_plane.cache_misses" misses;
        det "read_plane.readahead_useful_frac" "frac" (frac ra_hits ra_blocks);
        cnt "read_plane.readahead_hits" ra_hits;
        cnt "read_plane.readahead_blocks" ra_blocks;
        cnt "read_plane.readahead_wasted" (c Names.Ns.read_plane Names.readahead_wasted);
        cnt "read_plane.evictions" (c Names.Ns.read_plane Names.cache_evictions);
        (* disk *)
        det "disk.transactions_per_write" "count" (frac transactions writes);
        det "disk.kib_per_transaction" "KiB" (frac bytes transactions /. 1024.0);
        det "disk.busy_frac" "frac" busy;
        det "disk.queue_wait_p99_ms" "ms" (ms_of_us (Stat.quantile (merged_disk Names.queue_wait_us).Probe.buckets 0.99));
        det "disk.seek_mean_ms" "ms" (ms_of_us (Probe.mean (merged_disk Names.seek_us)));
        det "disk.service_mean_ms" "ms" (ms_of_us (Probe.mean (merged_disk Names.service_us)));
        cnt "disk.merged_requests" (List.fold_left (fun a ns -> a + c ns Names.merged_requests) 0 disk_ns);
        det "nvram.accept_frac" "frac" (frac accepted offered);
        det "nvram.flush_batch_mean_kib" "KiB" (Probe.mean (hd nvram Names.flush_batch_bytes) /. 1024.0);
        det "nvram.read_hit_frac" "frac" (frac nv_hits (nv_hits + c nvram Names.read_misses));
        (* workload *)
        cnt "load.outstanding_max" r.W.outstanding_max;
        det "load.failed_op_frac" "frac" (frac failed (Stdlib.max 1 attempted));
      ]
  in
  if trace then begin
    (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Spans.write (Printf.sprintf ".perfbench/spans-%s-seed%d.tsv" workload seed)
  end;
  let tail_ok = match Stat.highest_percentile n with Some p -> p >= 99.0 | None -> false in
  let bad = if tail_ok then r.W.bad else Printf.sprintf "%d RPCs leave fewer than 10 beyond p99" n :: r.W.bad in
  (values, attempted, failed, bad, Probe.digest (Nfsg_experiments.Rig.metrics r.W.rig))

let kind_tag = function Det -> "det" | Gc -> "gc" | Host -> "host"
let kind_of_tag = function "det" -> Det | "gc" -> Gc | _ -> Host

(* The child's report, one item per line, floats with all their
   digits. *)
let child ~workload ~seed ~trace =
  let values, attempted, failed, bad, digest = measure ~workload ~seed ~trace in
  List.iter (fun v -> Printf.printf "v %s %s %s %.17g\n" (kind_tag v.kind) v.name v.unit_ v.v) values;
  Printf.printf "attempted %d\nfailed %d\ndigest %s\n" attempted failed digest;
  List.iter (fun b -> Printf.printf "bad %s\n" b) bad

(* {1 Repetitions (parent process)} *)

type rep = {
  traced : bool;
  values : value list;
  attempted : int;
  failed : int;
  bad : string list;
  digest : string;
}

let run_child ~workload ~seed ~traced =
  let args =
    [| Sys.executable_name; "--child"; "--workload"; workload; "--seed"; string_of_int seed;
       "--trace"; (if traced then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let rep = ref { traced; values = []; attempted = 0; failed = 0; bad = []; digest = "" } in
  (try
     while true do
       let line = input_line ic in
       let r = !rep in
       match String.split_on_char ' ' line with
       | [ "v"; k; name; unit_; v ] ->
           rep := { r with values = { name; unit_; kind = kind_of_tag k; v = float_of_string v } :: r.values }
       | [ "attempted"; n ] -> rep := { r with attempted = int_of_string n }
       | [ "failed"; n ] -> rep := { r with failed = int_of_string n }
       | [ "digest"; d ] -> rep := { r with digest = d }
       | "bad" :: msg -> rep := { r with bad = String.concat " " msg :: r.bad }
       | _ -> ()
     done
   with End_of_file -> ());
  let label = if traced then "traced" else "untraced" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
      let rep = { !rep with values = List.rev !rep.values } in
      Printf.eprintf "perfbench: %s %s repetition:%s\n%!" workload label
        (String.concat ""
           (List.filter_map
              (fun v -> if v.kind = Host then Some (Printf.sprintf " %s=%.4g" v.name v.v) else None)
              rep.values));
      rep
  | _ -> failwith (Printf.sprintf "%s repetition of %s failed" label workload)

(* Every check the runs must pass, as messages; empty = correct. *)
let problems reps =
  let first = List.hd reps in
  let same_det a b =
    List.for_all
      (fun v ->
        v.kind <> Det
        || match List.find_opt (fun u -> u.name = v.name) b.values with Some u -> u.v = v.v | None -> true)
      a.values
  in
  let untraced = List.filter (fun r -> not r.traced) reps in
  let same_gc a b =
    List.for_all
      (fun v -> v.kind <> Gc || List.exists (fun u -> u.name = v.name && u.v = v.v) b.values)
      a.values
  in
  List.concat_map (fun r -> r.bad) reps
  @ (if List.exists (fun r -> r.failed > 0) reps then [ "operations failed" ] else [])
  @ (if List.for_all (fun r -> r.digest = first.digest && same_det first r) reps then []
     else [ "simulated results differ between repetitions" ])
  @
  match untraced with
  | u :: rest when not (List.for_all (same_gc u) rest) -> [ "allocation counts differ between untraced repetitions" ]
  | _ -> []

let median_of reps name =
  Stat.median
    (List.filter_map (fun r -> List.find_opt (fun v -> v.name = name) r.values |> Option.map (fun v -> v.v)) reps)

let end_to_end = [ "setup_s"; "run_s"; "peak_heap_mib"; "sim_ops_s"; "sim_rpc_p50_ms"; "sim_rpc_p99_ms" ]

(* The reported metrics, in the order BENCHMARK.json lists them. *)
let report ~trace reps =
  let untraced = List.filter (fun r -> not r.traced) reps in
  let traced = List.filter (fun r -> r.traced) reps in
  let pick reps name = (List.find (fun v -> v.name = name) (List.hd reps).values).unit_ in
  let summary reps name = (name, pick reps name, median_of reps name) in
  if not trace then List.map (summary untraced) end_to_end
  else begin
    let per_layer_of reps ~skip =
      List.filter_map
        (fun v -> if List.mem v.name skip then None else Some (summary reps v.name))
        (List.hd reps).values
    in
    per_layer_of untraced ~skip:end_to_end
    @ per_layer_of traced ~skip:("run_s" :: end_to_end @ List.map (fun v -> v.name) (List.hd untraced).values)
    @ [ ("trace.overhead_s", "s", median_of traced "run_s" -. median_of untraced "run_s") ]
  end

let json_result ~correct ~attempted ~failed metrics =
  let metric (name, unit_, v) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_ in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* Repeat until [seconds] of host time have passed, with at least
   three repetitions (two of each kind when traced, alternating, so
   drift on the host hits both sides alike). *)
let parent ~workload ~seed ~seconds ~trace =
  let t0 = Unix.gettimeofday () in
  let rec go acc i =
    let enough = if trace then i >= 4 else i >= 3 in
    if enough && Unix.gettimeofday () -. t0 >= float_of_int seconds then List.rev acc
    else go (run_child ~workload ~seed ~traced:(trace && i mod 2 = 1) :: acc) (i + 1)
  in
  let reps = go [] 0 in
  let bad = problems reps in
  List.iter (fun p -> Printf.eprintf "perfbench: %s\n" p) bad;
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 reps in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 reps in
  print_endline (json_result ~correct:(bad = []) ~attempted ~failed (report ~trace reps));
  if bad <> [] then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and is_child = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat ", " W.names);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " host seconds to keep repeating the workload");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics from a traced run");
      ("--child", Arg.Set is_child, " run one repetition and report it (internal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload W.names) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " W.names);
    exit 2
  end;
  if !is_child then child ~workload:!workload ~seed:!seed ~trace:(!trace = 1)
  else parent ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
