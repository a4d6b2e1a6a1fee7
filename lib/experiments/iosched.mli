(** The I/O-scheduler comparison bench: the same mixed multi-client
    LADDIS-style load over one spindle, once per scheduling policy —
    [`Fifo] with merging off (the reference port's driver), [`Elevator]
    with coalescing, and [`Deadline] with coalescing and starvation
    control. Everything derives from one seed, so every run gives the
    same bytes. *)

val report : unit -> Nfsg_stats.Report.t
(** Text table of the three policies under a fixed modest load, one
    world per policy, same seed: only the spindle's service order
    differs between columns. *)

val bench_iosched : unit -> Nfsg_stats.Json.t
(** The committed BENCH_iosched.json artifact: a fixed saturating
    workload, byte-deterministic. CI regenerates it and byte-diffs. *)

val investigate : ?threshold:Nfsg_sim.Time.t -> string -> string
(** [investigate label] reruns the bench world of the named variant
    with journey tracing armed at [threshold] (default 300 ms) and
    renders the evidence side by side: client-visible WRITE latency,
    the server's journey total and per-phase p99s, RPC retransmission
    counters, duplicate-cache activity, and every retained long-op
    record. The reproducible form of the EXPERIMENTS.md tail
    investigation ([nfsgather iosched-probe]). Raises
    [Invalid_argument] for an unknown variant label. *)
