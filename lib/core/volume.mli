(** One export of a multi-volume server: a device (plain, NVRAM, or
    stripe) with its mounted filesystem, buffer cache, and its own
    write-gathering plane.

    The paper's testbed serves several disks — single spindles and a
    3-disk stripe set — from one machine. A [Volume.t] is that unit of
    service: gathering, procrastination, and metadata election happen
    per volume, so a flush on one export never blocks batch formation
    on another. The server routes each filehandle to its volume by
    [fsid] and rejects dead identities by [vgen] (see {!owns}). *)

type spec = {
  export : string;  (** name a client mounts, e.g. ["/export0"] *)
  device : Nfsg_disk.Device.t;
  cache_blocks : int option;  (** buffer-cache bound; [None] = plenty *)
  read_only : bool;  (** exported ro: mutating procs earn NFSERR_ROFS *)
  readahead : Nfsg_ufs.Buffer_cache.readahead option;
      (** sequential prefetch policy; [None] = read-ahead off *)
}

val spec :
  ?cache_blocks:int ->
  ?read_only:bool ->
  ?readahead:Nfsg_ufs.Buffer_cache.readahead ->
  string ->
  Nfsg_disk.Device.t ->
  spec

type t

val mount :
  Nfsg_sim.Engine.t ->
  fsid:int ->
  ?vgen:int ->
  ns:string * string * string ->
  sock:Nfsg_net.Socket.t ->
  cpu:Nfsg_sim.Resource.t ->
  costs:Cpu_model.t ->
  send_reply:(Nfsg_rpc.Svc.transport -> Nfsg_nfs.Proto.res -> unit) ->
  ?trace:Nfsg_stats.Trace.t ->
  metrics:Nfsg_stats.Metrics.t ->
  wl_config:Write_layer.config ->
  spec ->
  t
(** Mounts the device and builds the volume's write layer on the
    shared server socket/CPU.

    [vgen] is the volume generation: omitted, the device is formatted
    and a fresh generation is drawn from a process-global counter (a
    freshly formatted or replaced volume invalidates all old handles);
    the recovery path passes the previous incarnation's value, and the
    filesystem is remounted as it is, so client handles survive a
    reboot.

    [ns] names the volume's metrics namespaces: its per-procedure op
    counters, its write layer and its read plane, in that order (the
    server decides them). *)

val export : t -> string
val fsid : t -> int

val vgen : t -> int
(** Volume generation carried in every filehandle this volume mints. *)

val device : t -> Nfsg_disk.Device.t
val fs : t -> Nfsg_ufs.Fs.t
val write_layer : t -> Write_layer.t

val server_ns : t -> string
(** Metrics namespace for this volume's per-procedure op counters. *)

val read_only : t -> bool
(** Is the export currently write-protected? *)

val set_read_only : t -> bool -> unit
(** Flip the export's write protection at runtime ("exportfs -o ro"):
    an experiment populates a volume read-write, then protects it
    before unleashing the fleet. *)

(** [spec_of] is the spec as it must be remounted at recovery —
    includes the current runtime read-only state. *)
val spec_of : t -> spec
val root_fh : t -> Nfsg_nfs.Proto.fh

val owns : t -> Nfsg_nfs.Proto.fh -> bool
(** Does this filehandle name this volume incarnation? False when the
    fsid differs {e or} the vgen is from before a reformat. *)

val crash : t -> unit
(** Drop volatile filesystem state and crash the device (power fail);
    the platter and any NVRAM contents survive for {!mount} with the
    same [vgen] to recover. *)
