(** Multi-volume exports experiment: three volumes — two single
    spindles and a 3-drive stripe set, the paper-testbed disk
    complement — served by one machine under simultaneous LADDIS-style
    load spread round-robin over the exports.

    Two claims are measured. {e Independence}: gather batches form per
    volume (each [write_layer.vol<k>] batch-size histogram fills on its
    own, metadata-flush savings accrue per volume). {e Isolation}: an
    error window opened on volume 1's spindle mid-measurement leaves
    the WRITE latency of the other two volumes at its fault-free
    level — a flush failing on one export never blocks another's
    plane. *)

type config
(** A LADDIS load spread round-robin over the 3 exports. *)

val quick_cfg : config
(** Three load processes and a 2 s measurement: the [quick] run. *)

type vol_stats = {
  export : string;
  fsid : int;
  writes : int;  (** WRITE RPCs executed on this volume *)
  batches : int;  (** gather batches flushed *)
  mean_batch : float;
  flushes_saved : int;
  write : Rig.latency;  (** client-side WRITE latency *)
}

type phase = { point : Nfsg_workload.Laddis.point; vols : vol_stats list }

type result = {
  clean : phase;
  faulted : phase;  (** same seed, error window on volume 1's spindle *)
  errors_injected : int;
}

val run : ?cfg:config -> unit -> result
(** Two same-seed worlds: fault-free, then with the error window armed
    inside the measurement interval. Deterministic in [cfg]. *)

val report : ?quick:bool -> unit -> Nfsg_stats.Report.t
(** Human-readable table over {!run} (the [multivolume] experiment of
    the CLI and bench). *)

val bench_multivolume : unit -> Nfsg_stats.Json.t
(** The committed [BENCH_multivolume.json] artifact: per-volume gather
    and latency rows plus the fault-isolation summary, from one fixed
    modest workload (no quick/full split, so CI reproduces the bytes
    anywhere). Volume generations never appear in the document. *)
