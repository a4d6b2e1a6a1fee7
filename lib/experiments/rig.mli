(** Experiment rig: a fresh simulated world per measurement — segment,
    device stack (raw disk, optional stripe set, optional Prestoserve),
    server, and any number of client hosts. *)

type spec = {
  net : Calib.net;
  accel : bool;  (** Prestoserve NVRAM in front of the device *)
  spindles : int;  (** 1, or n for an n-drive stripe set *)
  volumes : int;
      (** exports served; each volume gets its own device stack
          ([spindles] disks, optional stripe/Presto). 1 = the classic
          single-volume rig via [Server.make]; >1 goes through
          [Server.make_exports] with exports "/export0".."/exportN" *)
  nfsds : int;
  gathering : bool;
  trace : bool;
  cache_blocks : int option;
      (** server buffer-cache bound, to force read misses under LADDIS
          working sets; [None] = unbounded *)
  readahead : Nfsg_ufs.Buffer_cache.readahead option;
      (** sequential prefetch policy armed in every volume's buffer
          cache; [None] = read-ahead off (the historical behaviour) *)
  disk_scheduler : Nfsg_disk.Disk.scheduler;  (** I/O scheduling policy of every spindle *)
  raid_level : Nfsg_disk.Stripe.level option;
      (** redundancy of a multi-spindle stack: [None] is the plain
          RAID-0 stripe set of the paper's Tables 5-6; [Some l] builds
          a RAID-1 or RAID-5 array (with its own metrics) instead. The
          level must fit [spindles] (RAID-1 needs 2 members, RAID-5
          needs 3); ignored with one spindle *)
  long_op_threshold : Nfsg_sim.Time.t option;
      (** arm long-op journey tracing in the server: ops slower
          end-to-end than this leave a record in its long-op ring,
          which {!run} dumps through [monitor_emit] after the load *)
  monitor_interval : Nfsg_sim.Time.t option;
      (** drive a {!Nfsg_stats.Monitor} over the rig's registry for
          the duration of each {!run}, one report per interval *)
  monitor_emit : (string -> unit) option;
      (** where monitor reports and long-op dumps go (the owning
          binary's stdout, typically); the rig itself never prints *)
  write_layer_overrides : Nfsg_core.Write_layer.config -> Nfsg_core.Write_layer.config;
      (** applied after the mode/procrastination defaults; identity for
          most experiments, used by the ablations *)
}

val default_spec : spec
(** FDDI, no accel, 1 spindle, 1 volume, 8 nfsds, gathering, no
    trace, Fifo, plain stripe, no long-op tracing, no monitor. *)

type t = {
  spec : spec;  (** what the world was built from *)
  eng : Nfsg_sim.Engine.t;
  segment : Nfsg_net.Segment.t;
  disks : Nfsg_disk.Device.t array;
  device : Nfsg_disk.Device.t;
  server : Nfsg_core.Server.t;
  trace : Nfsg_stats.Trace.t option;
  metrics : Nfsg_stats.Metrics.t;
}

val make : spec -> t
(** Every layer of the world registers its instruments in [metrics]: a
    fresh registry per rig, unless {!set_metrics_sink} installed a
    shared one. *)

val metrics : t -> Nfsg_stats.Metrics.t

val set_metrics_sink : Nfsg_stats.Metrics.t option -> unit
(** Install (or clear) a process-wide registry that every subsequent
    {!make} reports into instead of a private one — how [--metrics-json]
    collects an experiment's instruments across the many worlds it
    builds. Instruments accumulate across worlds by find-or-create. *)

val metrics_sink : unit -> Nfsg_stats.Metrics.t option
(** The currently installed shared sink, if any — lets an experiment
    that needs per-world isolation (e.g. the writegather bench rows)
    save, clear and restore it. *)

val new_client :
  t -> ?biods:int -> ?protocol:Nfsg_nfs.Client.protocol -> string -> Nfsg_nfs.Client.t
(** Attach a client host with the given address to the segment. *)

val root : t -> Nfsg_nfs.Proto.fh
(** Root filehandle of the first (or only) volume. *)

val roots : t -> Nfsg_nfs.Proto.fh list
(** Per-volume root filehandles, fsid order. *)

val run : t -> (unit -> 'a) -> 'a
(** Run [f] as the driver process and drain the simulation. *)

val spindle_stats : t -> Nfsg_disk.Device.stats
(** Aggregate over the raw spindles. *)

type window = {
  elapsed : Nfsg_sim.Time.t;
  cpu_pct : float;
  disk_kb_s : float;
  disk_trans_s : float;
}

val measure : t -> (unit -> 'a) -> 'a * window
(** Snapshot CPU and spindle counters around [f] (which must be called
    from inside a driver process — compose with {!run}). *)
