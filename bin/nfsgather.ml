(* nfsgather: regenerate any table or figure of Juszczak (USENIX 1994)
   from the simulated NFS stack. *)

open Cmdliner
module E = Nfsg_experiments.Experiments
module Rig = Nfsg_experiments.Rig
module Lc = Nfsg_experiments.Laddis_curve
module Bs = Nfsg_experiments.Bootstorm
module Chaos = Nfsg_experiments.Chaos
module Metrics = Nfsg_stats.Metrics

let print_report r = print_string (Nfsg_stats.Report.to_string r)

let quick_arg =
  let doc = "Run with a smaller file / shorter measurement (fast smoke mode)." in
  Arg.(value & flag & info [ "q"; "quick" ] ~doc)

let scheduler_arg =
  let policy =
    Arg.enum
      [
        ("fifo", Nfsg_disk.Disk.Fifo);
        ("elevator", Nfsg_disk.Disk.Elevator);
        ("deadline", Nfsg_disk.Disk.Deadline);
      ]
  in
  let doc =
    "Force the spindles of every rig-built world and of the chaos rig onto the given I/O \
     scheduling policy ($(docv) is one of fifo, elevator or deadline), overriding each \
     experiment's own choice. The iosched, raid and multivolume experiments build their own \
     worlds, whose variants are the scheduler or level sweep, and ignore it."
  in
  Arg.(value & opt (some policy) None & info [ "scheduler" ] ~docv:"POLICY" ~doc)

let raid_level_arg =
  let level =
    Arg.enum
      [
        ("raid0", Nfsg_disk.Stripe.Raid0);
        ("raid1", Nfsg_disk.Stripe.Raid1);
        ("raid5", Nfsg_disk.Stripe.Raid5);
      ]
  in
  let doc =
    "Serve every multi-spindle rig-built experiment from an array at the given RAID level \
     ($(docv) is one of raid0, raid1 or raid5; raid0, the plain stripe set, is the default). \
     The chaos rig runs over an array of that level instead of its single disk and, at raid1 \
     and raid5, fail-stops and rebuilds one member per fault cycle."
  in
  Arg.(value & opt (some level) None & info [ "raid-level" ] ~docv:"LEVEL" ~doc)

let monitor_interval_arg =
  let doc =
    "Drive an nfsmon top-like reporter over every simulated world the selected experiments \
     build, printing per-client-station activity every $(docv) milliseconds of simulated time."
  in
  Arg.(value & opt (some float) None & info [ "monitor-interval" ] ~docv:"MS" ~doc)

let long_op_threshold_arg =
  let doc =
    "Arm long-op journey tracing in every simulated server: ops slower end-to-end than $(docv) \
     milliseconds leave a full per-phase journey record, dumped after each experiment."
  in
  Arg.(value & opt (some float) None & info [ "long-op-threshold" ] ~docv:"MS" ~doc)

let sweep_points_arg =
  let doc =
    "Cap the laddis-curve offered-load ladder at $(docv) rungs per configuration, overriding \
     the sweep's own ceiling."
  in
  Arg.(value & opt (some int) None & info [ "sweep-points" ] ~docv:"N" ~doc)

let procs_max_arg =
  let doc =
    "Cap the laddis-curve load-generator pool at $(docv) processes, overriding the sweep's \
     own ceiling."
  in
  Arg.(value & opt (some int) None & info [ "procs-max" ] ~docv:"N" ~doc)

let curve_configs_arg =
  let doc =
    "Restrict the laddis-curve sweep to the named grid configurations (comma-separated; \
     baseline, deadline, gather, nvram, gather+stripe3)."
  in
  Arg.(
    value
    & opt (some (list ~sep:',' string)) None
    & info [ "curve-configs" ] ~docv:"CONFIGS" ~doc)

let clients_max_arg =
  let doc =
    "Cap the bootstorm fleet ladder at $(docv) diskless clients, overriding the sweep's own \
     ceiling."
  in
  Arg.(value & opt (some int) None & info [ "clients-max" ] ~docv:"N" ~doc)

let readahead_arg =
  let side = Arg.enum [ ("on", true); ("off", false) ] in
  let doc =
    "Restrict the bootstorm comparison to one side ($(docv) is on or off) instead of running \
     both the read-ahead and no-read-ahead configurations."
  in
  Arg.(value & opt (some side) None & info [ "readahead" ] ~docv:"SIDE" ~doc)

let metrics_json_arg =
  let doc =
    "Write the typed-metrics registry of the run (every counter, gauge and histogram \
     registered by every simulated world the selected experiments build) to $(docv) as \
     deterministic JSON."
  in
  Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE" ~doc)

let run_experiment ?metrics ~quick ~adjust ~curve ~storm ~chaos = function
  | "table1" -> print_report (E.table1 ~quick ~adjust ())
  | "table2" -> print_report (E.table2 ~quick ~adjust ())
  | "table3" -> print_report (E.table3 ~quick ~adjust ())
  | "table4" -> print_report (E.table4 ~quick ~adjust ())
  | "table5" -> print_report (E.table5 ~quick ~adjust ())
  | "table6" -> print_report (E.table6 ~quick ~adjust ())
  | "figure1" -> print_string (E.figure1 ~adjust ())
  | "figure2" ->
      print_string
        (E.render_laddis ~title:"Figure 2. SPEC SFS 1.0-style baseline (FDDI)"
           (E.figure2 ~quick ~adjust ()))
  | "figure3" ->
      print_string
        (E.render_laddis ~title:"Figure 3. SPEC SFS 1.0-style baseline (FDDI, Prestoserve)"
           (E.figure3 ~quick ~adjust ()))
  | "ablations" ->
      print_report (E.ablation_procrastination ~quick ~adjust ());
      print_newline ();
      print_report (E.ablation_reply_order ~quick ~adjust ());
      print_newline ();
      print_report (E.ablation_latency_device ~quick ~adjust ());
      print_newline ();
      print_report (E.ablation_mbuf_hunter ~quick ~adjust ());
      print_newline ();
      print_report (E.ablation_dumb_pc ~quick ~adjust ());
      print_newline ();
      print_report (E.ablation_disk_scheduler ~quick ~adjust ())
  | "extensions" ->
      print_report (E.extension_learned_clients ~quick ~adjust ());
      print_newline ();
      print_report (E.extension_v3 ~quick ~adjust ());
      print_newline ();
      print_report (E.extension_write_modes ~quick ~adjust ())
  | "writegather" ->
      print_string (Nfsg_stats.Json.to_string ~pretty:true (E.bench_writegather ~quick ~adjust ()))
  | "multivolume" -> print_report (Nfsg_experiments.Multivolume.report ~quick ())
  | "laddis-curve" ->
      let sweep, grid = curve in
      print_report (Lc.report ~sweep ?grid ~adjust ())
  | "bootstorm" ->
      let sweep, variants = storm in
      print_report (Bs.report ~sweep ?variants ~adjust ())
  | "iosched-probe" ->
      (* The tail investigation behind the deadline-p99 fix: rerun the
         bench world with journey tracing armed and dump the evidence
         for the two ends of the comparison. *)
      print_string (Nfsg_experiments.Iosched.investigate "deadline+merge");
      print_newline ();
      print_string (Nfsg_experiments.Iosched.investigate "fifo")
  | "raid" -> print_report (Nfsg_experiments.Raid.report ())
  | "chaos" ->
      let r = Chaos.run ?metrics chaos in
      Fmt.pr "%a@." Chaos.pp_result r;
      List.iter print_endline r.Chaos.timeline
  | other -> invalid_arg ("nfsgather: no experiment " ^ other)

let names =
  [
    "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "figure1"; "figure2"; "figure3";
    "ablations"; "extensions"; "writegather"; "multivolume"; "laddis-curve"; "bootstorm"; "raid";
    "chaos";
  ]
(* iosched-probe is runnable by name but not part of "all": it reruns
   the saturating bench world twice and exists for investigations, not
   for the paper-reproduction sweep. *)

(* A flag, when given, wins over the experiment's own value. *)
let prefer flag own = if Option.is_some flag then flag else own

let run quick scheduler raid_level sweep_points procs_max curve_configs clients_max readahead
    monitor_interval long_op_threshold metrics_json targets =
  let targets = if targets = [] || List.mem "all" targets then names else targets in
  let metrics = Option.map (fun _ -> Metrics.create ()) metrics_json in
  let long_op_threshold = Option.map Nfsg_sim.Time.of_ms_f long_op_threshold in
  let monitor_interval = Option.map Nfsg_sim.Time.of_ms_f monitor_interval in
  let emit =
    if monitor_interval <> None || long_op_threshold <> None then Some print_string else None
  in
  let adjust (spec : Rig.spec) =
    {
      spec with
      Rig.disk_scheduler = Option.value scheduler ~default:spec.Rig.disk_scheduler;
      raid_level = Option.value raid_level ~default:spec.Rig.raid_level;
      long_op_threshold = prefer long_op_threshold spec.Rig.long_op_threshold;
      monitor_interval = prefer monitor_interval spec.Rig.monitor_interval;
      monitor_emit = prefer emit spec.Rig.monitor_emit;
    }
  in
  (* Quick mode shortens the ladders rather than shrinking the
     workload, so the rungs that do run stay comparable with the
     committed artifacts; an explicit cap flag wins over both. *)
  let curve =
    let sweep = if quick then { Lc.default_sweep with Lc.max_points = 3 } else Lc.default_sweep in
    ( {
        sweep with
        Lc.max_points = Option.value sweep_points ~default:sweep.Lc.max_points;
        procs_max = Option.value procs_max ~default:sweep.Lc.procs_max;
      },
      Option.map Lc.grid_of_labels curve_configs )
  in
  let storm =
    let sweep = if quick then { Bs.default_sweep with Bs.clients_max = 4 } else Bs.default_sweep in
    ( { sweep with Bs.clients_max = Option.value clients_max ~default:sweep.Bs.clients_max },
      Option.map
        (fun on -> List.filter (fun v -> (v.Bs.readahead <> None) = on) Bs.variants)
        readahead )
  in
  (* The chaos rig takes no [adjust]: its storage is its own, so the
     flags that reach it are set on its config. *)
  let chaos =
    let cfg =
      if quick then { Chaos.default with Chaos.cycles = 2; blocks_per_writer = 60 }
      else Chaos.default
    in
    {
      cfg with
      Chaos.scheduler = Option.value scheduler ~default:cfg.Chaos.scheduler;
      array_level = raid_level;
    }
  in
  (* Worlds without a registry of their own report into the shared
     sink; chaos takes the registry as a value. *)
  Rig.set_metrics_sink metrics;
  List.iteri
    (fun i name ->
      if i > 0 then print_newline ();
      run_experiment ?metrics ~quick ~adjust ~curve ~storm ~chaos name)
    targets;
  Rig.set_metrics_sink None;
  match (metrics_json, metrics) with
  | Some file, Some m ->
      let oc = open_out file in
      output_string oc (Metrics.to_string ~pretty:true m);
      close_out oc;
      Printf.eprintf "metrics written to %s\n%!" file
  | _ -> ()

(* Every target is checked before any runs: an unknown name is a
   usage error, and nothing runs. *)
let targets_arg =
  let target = Arg.enum (List.map (fun n -> (n, n)) ("all" :: "iosched-probe" :: names)) in
  let doc =
    "Experiments to run: table1..table6, figure1..figure3, ablations, extensions, writegather, \
     multivolume, laddis-curve, bootstorm, raid, chaos, iosched-probe, or all (default; \
     excludes iosched-probe)."
  in
  Arg.(value & pos_all target [] & info [] ~docv:"EXPERIMENT" ~doc)

let cmd =
  let doc = "reproduce 'Improving the Write Performance of an NFS Server' (USENIX 1994)" in
  let info = Cmd.info "nfsgather" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      const run $ quick_arg $ scheduler_arg $ raid_level_arg $ sweep_points_arg $ procs_max_arg
      $ curve_configs_arg $ clients_max_arg $ readahead_arg $ monitor_interval_arg
      $ long_op_threshold_arg $ metrics_json_arg $ targets_arg)

let () = exit (Cmd.eval cmd)
