(** Experiment rig: a fresh simulated world per measurement — segment,
    device stack (raw disk, optional stripe set, optional Prestoserve),
    server, and any number of client hosts. {!make} is the only way an
    experiment builds a world; what varies between worlds is the
    [spec] and, where the paper's stacks do not fit, the [storage]
    callback. *)

type env = {
  eng : Nfsg_sim.Engine.t;
  metrics : Nfsg_stats.Metrics.t;
  charge : Nfsg_sim.Time.t -> unit;  (** charge the server CPU: an [Nvram.create ~cpu_charge] *)
  on_transaction : bytes:int -> unit;
      (** one driver transaction at the world's costs: a [Disk.create ~on_transaction] *)
}
(** What a storage callback builds its devices from. *)

type storage = {
  raw : Nfsg_disk.Device.t array;  (** the spindles; {!spindle_stats} sums these *)
  exports : Nfsg_disk.Device.t list;
      (** one device per export, served by one [Server.make]: a lone
          export as "/export", several as "/export0", "/export1", .. *)
}

type spec = {
  net : Calib.net;
  accel : bool;  (** Prestoserve NVRAM in front of the device *)
  spindles : int;  (** 1, or n for an n-drive stripe set *)
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
  raid_level : Nfsg_disk.Stripe.level;
      (** array level of a multi-spindle stack: [Raid0] (the default)
          is the plain stripe set of the paper's Tables 5-6; [Raid1]
          and [Raid5] build a redundant array with its own metrics
          instead. The level must fit [spindles] (RAID-1 needs 2
          members, RAID-5 needs 3); ignored with one spindle *)
  costs : Nfsg_core.Cpu_model.t option;
      (** server CPU costs; [None] is the calibrated {!Calib.cpu_costs}
          of [net] *)
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
(** FDDI, no accel, 1 spindle, 8 nfsds, gathering, no trace, Fifo,
    plain stripe, calibrated costs, no long-op tracing, no monitor. *)

type t = {
  spec : spec;  (** what the world was built from *)
  eng : Nfsg_sim.Engine.t;
  segment : Nfsg_net.Segment.t;
  disks : Nfsg_disk.Device.t array;
  server : Nfsg_core.Server.t;
  trace : Nfsg_stats.Trace.t option;
  metrics : Nfsg_stats.Metrics.t;
}

val make :
  ?seed:int -> ?storage:(env -> storage) -> ?metrics:Nfsg_stats.Metrics.t -> spec -> t
(** Build engine, segment (RNG [seed], default Segment's own), storage,
    server, in that order: [storage] runs after the segment and before
    the server, and the default callback builds the [spindles] /
    [raid_level] / [accel] stack of [spec]. Every layer registers its
    instruments in [metrics]; without it, the {!set_metrics_sink}
    registry if one is installed, else a fresh one. A world that reads
    its own instruments passes its own registry. *)

val metrics : t -> Nfsg_stats.Metrics.t

val set_metrics_sink : Nfsg_stats.Metrics.t option -> unit
(** Install (or clear) a process-wide registry that every subsequent
    {!make} reports into instead of a private one — how [--metrics-json]
    collects an experiment's instruments across the many worlds it
    builds, unless they pass their own. Instruments accumulate across
    worlds by find-or-create. *)

val new_client :
  t ->
  ?biods:int ->
  ?protocol:Nfsg_nfs.Client.protocol ->
  ?metrics:Nfsg_stats.Metrics.t ->
  string ->
  Nfsg_nfs.Client.t
(** Attach a client host with the given address to the segment. Its
    RPC and NFS client instruments go to [metrics], by default the
    world's registry. *)

val root : t -> Nfsg_nfs.Proto.fh
(** Root filehandle of the first (or only) volume. *)

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

type latency = { mean_us : float; p50_us : float; p99_us : float }

val write_latency : Nfsg_stats.Metrics.t -> latency
(** Client-side WRITE latency in a registry's [nfs_client] histogram;
    zeros when no WRITE completed. *)

val latency_json : latency -> Nfsg_stats.Json.t
(** [{"mean_us", "p50_us", "p99_us"}], as every bench artifact writes it. *)

val artifact :
  bench:string ->
  workload:(string * Nfsg_stats.Json.t) list ->
  (string * Nfsg_stats.Json.t) list ->
  Nfsg_stats.Json.t
(** A committed [BENCH_*.json] document: the [schema] and [bench]
    header, then [workload] behind ["net": "fddi"], then [fields]. *)
