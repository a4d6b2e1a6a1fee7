(** Every table and figure of the paper, regenerated.

    Each function builds fresh simulated worlds, runs the workload,
    and returns printable output. Its [adjust] argument (default
    identity) is applied to the spec of every world just before
    {!Rig.make}, so it wins over the experiment's own choices — how
    nfsgather's world-wide flags ([--scheduler], [--raid-level],
    [--long-op-threshold], [--monitor-interval]) reach every world.
    The experiment index lives in DESIGN.md; paper-vs-measured
    comparisons live in EXPERIMENTS.md. *)

type experiment = ?quick:bool -> ?adjust:(Rig.spec -> Rig.spec) -> unit -> Nfsg_stats.Report.t
(** Every table, ablation and extension. [quick] shrinks the workload
    for smoke runs. *)

val table1 : experiment
(** NFS 10MB file copy: Ethernet (biods 0/3/7/11/15). [quick] uses a
    2.5 MB file for fast smoke runs; shapes, not absolutes, change. *)

val table2 : experiment
(** Ethernet + Prestoserve. *)

val table3 : experiment
(** FDDI. *)

val table4 : experiment
(** FDDI + Prestoserve. *)

val table5 : experiment
(** FDDI, 3 striped drives (biods up to 23). *)

val table6 : experiment
(** FDDI + Prestoserve, 3 striped drives. *)

val figure1 : ?adjust:(Rig.spec -> Rig.spec) -> unit -> string
(** Packet/disk timelines of a standard vs a gathering server for the
    4-biod sequential writer, >100K into the file. *)

val figure2 :
  ?quick:bool -> ?adjust:(Rig.spec -> Rig.spec) -> unit -> Laddis_curve.curve * Laddis_curve.curve
(** LADDIS-style throughput/latency curves (without, with gathering),
    FDDI, no NVRAM: two {!Laddis_curve.walk}s at [frac = 0] over the
    same offered loads, 20 stations each. *)

val figure3 :
  ?quick:bool -> ?adjust:(Rig.spec -> Rig.spec) -> unit -> Laddis_curve.curve * Laddis_curve.curve
(** Same with Prestoserve. *)

val render_laddis : title:string -> Laddis_curve.curve * Laddis_curve.curve -> string
(** Both curves rung by rung. A curve's peak throughput is its
    [capacity], printed with the latency of the first rung that reached
    it; the closing line is the capacity change with gathering. *)

(** {1 Ablations} (design choices the paper discusses) *)

val ablation_procrastination : experiment
(** Sweep the procrastination interval (section 6.6: "I wish I could
    say I know how to calculate the right number"). *)

val ablation_reply_order : experiment
(** FIFO vs the abandoned LIFO (section 6.7). *)

val ablation_latency_device : experiment
(** Procrastination vs the [SIVA93] first-write-as-latency-device
    variant (section 6.6), with and without NVRAM. *)

val ablation_mbuf_hunter : experiment
(** Socket-buffer scanning on/off under Prestoserve (section 6.5). *)

val ablation_dumb_pc : experiment
(** The 0-biod worst case across networks (section 6.10). *)

val ablation_disk_scheduler : experiment
(** FIFO vs C-LOOK elevator in the driver, under a random-access write
    load on the standard server — the per-spindle request-pattern point
    the paper makes against [SIVA93] (section 6.6). *)

(** {1 Extensions} (the paper's Future Work, built out) *)

val extension_learned_clients : experiment
(** Mogul's learned-client database (section 8): the dumb-PC penalty
    disappears while multi-biod clients keep the full gathering win. *)

val extension_v3 : experiment
(** NFS version 3 asynchronous writes + COMMIT vs version 2, against
    standard and gathering servers — the mixed environment the paper
    wonders about in section 8. *)

val extension_write_modes : experiment
(** Standard vs gathering vs "dangerous mode" (async volatile acks,
    section 4.3): what the shortcut buys, next to what the crash tests
    show it costs. *)

(** {1 Machine-readable bench} *)

val bench_writegather :
  ?quick:bool -> ?adjust:(Rig.spec -> Rig.spec) -> ?total:int -> unit -> Nfsg_stats.Json.t
(** The paper's core comparison as one JSON document
    ([BENCH_writegather.json]): Standard vs Gathering vs
    Gathering+Prestoserve on the FDDI 7-biod sequential write workload.
    Each row carries client throughput, server CPU, the WRITE latency
    split (mean/p50/p99 µs, from the client-side per-procedure
    histograms), disk transactions (total, KB/s and per 8 KB write),
    metadata flushes saved, and the gather batch-size histogram.
    Deterministic: same [total], same bytes. [total] overrides the
    workload size (default: the [quick]-dependent file-copy size). *)
