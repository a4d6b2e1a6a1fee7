(** Capacity-curve sweep: walk an offered-load ladder per server
    configuration until the achieved rate falls below the offered rate
    (the saturation knee), LADDIS style. Each configuration's curve
    yields a capacity rating — the paper's Figure 2/3 comparison run
    as one deterministic benchmark over the gathering / NVRAM /
    scheduler / stripe-width grid. {!walk} is the one LADDIS rung
    loop: Figures 2 and 3 run on it too. *)

type sweep = {
  load : Nfsg_workload.Laddis.config;
      (** per-rung load; [procs] is replaced by {!procs_for} of the rung *)
  nfsds : int;
  offered_start : float;  (** first rung, ops/s *)
  offered_step : float;  (** rung spacing, ops/s *)
  max_points : int;  (** ladder cap if the knee never appears *)
  procs_max : int;  (** load-generator pool ceiling *)
  knee_frac : float;  (** saturated when achieved < frac * offered *)
}

val default_sweep : sweep

val procs_for : procs_max:int -> float -> int
(** Load stations driving a given offered rate: one per ~10 ops/s,
    clamped to [4, procs_max]. *)

type variant = { label : string; spec : Rig.spec }

val detect_knee : ?frac:float -> (float * float) list -> int option
(** [detect_knee points] is the index of the first (offered, achieved)
    rung where achieved < frac * offered, in ladder order; [None] when
    the ladder never saturates. Pure — unit-testable on synthetic
    curves. [frac] defaults to [default_sweep.knee_frac]. *)

val capacity_rating : ?frac:float -> (float * float) list -> float
(** Best achieved rate among rungs the server kept up with
    (achieved >= frac * offered); falls back to the best achieved
    anywhere when every rung sagged, and 0 for an empty ladder. *)

val grid_of_labels : string list -> variant list
(** The named configurations of the curated grid (baseline, deadline,
    gather, nvram, gather+stripe3), in grid order — how the nfsgather
    [--curve-configs] flag restricts a sweep. Raises
    [Invalid_argument] on an unknown label. *)

(** {1 Walking} *)

type curve = {
  label : string;
  spec : Rig.spec;
  points : Nfsg_workload.Laddis.point list;  (** ladder order *)
  knee : int option;  (** index of the first sagging rung *)
  capacity : float;  (** ops/s rating per {!capacity_rating} *)
}

val walk :
  ?adjust:(Rig.spec -> Rig.spec) ->
  frac:float ->
  load:Nfsg_workload.Laddis.config ->
  rungs:(float * int) list ->
  variant ->
  curve
(** Walk [variant]'s rungs in order, each an (offered ops/s, load
    stations) pair run in a fresh {!Rig.make} world built from
    [adjust variant.spec] (default identity, so nfsgather's world-wide
    flags win); clients get [load.biods_per_proc] biods. The walk stops
    after the first rung whose achieved rate is below [frac] x offered
    and keeps that rung; [frac = 0] walks every rung. [knee] and
    [capacity] are {!detect_knee} and {!capacity_rating} at [frac]. *)

(** {1 The sweep}

    {!walk} at [knee_frac] over [offered_start + i * offered_step] with
    {!procs_for} stations, per configuration of [grid] (default: the
    whole grid); [adjust] applies on top of the sweep's [nfsds]. *)

val report :
  ?sweep:sweep ->
  ?grid:variant list ->
  ?adjust:(Rig.spec -> Rig.spec) ->
  unit ->
  Nfsg_stats.Report.t

val bench_laddis_curve :
  ?sweep:sweep ->
  ?grid:variant list ->
  ?adjust:(Rig.spec -> Rig.spec) ->
  unit ->
  Nfsg_stats.Json.t
(** The committed BENCH_laddis_curve.json artifact: one fixed modest
    sweep (same bytes regardless of quick/full). *)
