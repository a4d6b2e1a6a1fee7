(** The NFS server: socket, nfsd pool, duplicate cache, CPU model, and
    an {e export table} of volumes — each volume a device (optionally
    NVRAM-accelerated and/or striped) with its own filesystem, buffer
    cache, and write-gathering plane.

    {!make} over a list of {!Volume.spec}s is the only constructor;
    point NFS clients at [addr] on the same segment. Dispatch routes
    each filehandle to its volume by fsid, unknown or pre-reformat
    handles earn [NFSERR_STALE], and cross-volume renames earn
    [NFSERR_XDEV]. Every procedure resolves its handle the same way
    and answers a filesystem error in its own result shape. *)

type config = {
  nfsds : int;
  write_layer : Write_layer.config;
  costs : Cpu_model.t;
  dupcache : bool;
  rcvbuf : int;  (** server socket buffer (DEC OSF/1: 256 KiB max) *)
  long_op_threshold : Nfsg_sim.Time.t option;
      (** ops slower end-to-end than this emit a long-op record into the
          journey plane's ring; [None] disables long-op tracing (journey
          histograms and station attribution stay on regardless) *)
}

val default_config : config
(** 8 nfsds, gathering write layer, default costs, dupcache on. *)

type t

val make :
  Nfsg_sim.Engine.t ->
  segment:Nfsg_net.Segment.t ->
  addr:string ->
  ?trace:Nfsg_stats.Trace.t ->
  ?metrics:Nfsg_stats.Metrics.t ->
  config ->
  Volume.spec list ->
  t
(** Formats and mounts every volume of the export table (nonempty,
    else [Invalid_argument]), attaches the socket, spawns the nfsds.
    Volume [i] gets fsid [i+1]. All volumes share the socket, nfsd
    pool, duplicate cache, CPU, and write verifier.

    [metrics] is the registry every layer of this server registers its
    instruments in (["rpc.svc"], ["rpc.dupcache"], ["journey"]; private
    registry when omitted); {!restart} passes the same registry to the
    next incarnation so counts accumulate across restarts. A table of
    one volume registers its planes under ["server"], ["write_layer"]
    and ["read_plane"]; a table of several under [server.vol<fsid>],
    [write_layer.vol<fsid>] and [read_plane.vol<fsid>], and counts
    every op under ["server"] as well. *)

val volumes : t -> Volume.t list
(** The export table, fsid order. *)

val exports : t -> (string * Nfsg_nfs.Proto.fh) list
(** [(export name, root filehandle)] per volume — what the MOUNT
    service hands out. *)

val root_fh : t -> Nfsg_nfs.Proto.fh
(** Root handle of the first volume. *)

val fs : t -> Nfsg_ufs.Fs.t
(** First volume's filesystem. *)

val cpu : t -> Nfsg_sim.Resource.t

val write_layer : t -> Write_layer.t
(** First volume's write layer. *)

val socket : t -> Nfsg_net.Socket.t

val write_verifier : t -> int
(** The NFSv3 write verifier of this server incarnation: its boot count
    in its lineage, 1 for a server from {!make} and one more for each
    {!restart}. A change is how v3 clients learn that uncommitted data
    may have been lost. Worlds are independent, so two fresh servers
    report the same verifier. *)

val dupcache : t -> Nfsg_rpc.Dupcache.t option
(** This incarnation's duplicate request cache ([None] when the config
    turns it off). {!crash} empties it. *)

val op_count : t -> int -> int
(** Completed requests for an NFS procedure number. *)

val metrics : t -> Nfsg_stats.Metrics.t
(** The registry this server's layers report into (per-procedure
    counters live under namespace ["server"] as [ops_<PROC>]). *)

val journeys : t -> Nfsg_stats.Journey.plane
(** The live operability plane: per-phase journey histograms
    (namespace ["journey"]), per-client station attribution
    (namespaces ["station.<client>"]) and the long-op record ring. *)

val crash : t -> unit
(** Power-fail the server: volatile state gone, in-flight requests
    lost. The socket leaves the wire with its receive queue and sends
    nothing more; the duplicate request cache is emptied. The device
    survives (platter + NVRAM). *)

val restart : t -> t
(** Reboot after {!crash}: per-volume device recovery (NVRAM replay)
    and fsck-style remount, fresh daemons, same network address (the
    crashed incarnation left the wire), one shared write-verifier bump.
    Volume generations are preserved, so handles minted before the
    crash stay valid; clients that keep retransmitting ride through
    the outage: their RPCs go unanswered while the server is down and
    are answered by the new incarnation. *)
