(** Boot-storm capacity bench: ladder a fleet of diskless clients all
    booting from one shared read-only export, with server read-ahead
    off vs on. Offered load for a fleet of [k] is [k] times the
    one-client rate (perfect scaling), so the achieved curve knees
    exactly like the LADDIS sweep — and the knee is the export's
    capacity in {e clients}. *)

type sweep = {
  seed : int;
  nfsds : int;
  cache_blocks : int;
      (** server buffer-cache bound — deliberately smaller than the
          fleet's hot set so the cold storm actually misses *)
  clients_max : int;  (** ladder cap *)
  stagger : Nfsg_sim.Time.t;  (** power-on spacing between fleet members *)
  knee_frac : float;  (** saturated when achieved < frac * offered *)
}

val default_sweep : sweep

val ladder : int -> int list
(** Fleet sizes walked for a cap: 1, 2, 4, ... cap (pure, testable). *)

type variant = { label : string; readahead : Nfsg_ufs.Buffer_cache.readahead option }

val variants : variant list
(** The configuration pair: ["no-readahead"] and ["readahead"]. *)

(** {1 Running} *)

type point = {
  clients : int;
  offered : float;  (** clients x the one-client rate, ops/s *)
  achieved : float;  (** ops/s over the storm window *)
  avg_latency_ms : float;  (** per-RPC *)
  ops_completed : int;
  mean_boot_ms : float;  (** per-client MOUNT-to-prompt time *)
  cache_hit_rate : float;  (** server cache, storm window only *)
  readahead_blocks : int;
  readahead_hits : int;
  readahead_wasted : int;
}

type curve = {
  label : string;
  readahead_on : bool;
  points : point list;  (** ladder order *)
  knee : int option;  (** index of the first sagging rung *)
  capacity_ops : float;  (** ops/s, per {!Laddis_curve.capacity_rating} *)
  capacity_clients : int;  (** biggest fleet the export kept up with *)
}

val run :
  ?sweep:sweep -> ?variants:variant list -> ?adjust:(Rig.spec -> Rig.spec) -> unit -> curve list
(** Walk the fleet ladder of every configuration in [variants]
    (default {!variants}). [adjust] (default identity) is applied to
    each rung's spec just before its world is built, as in
    {!Laddis_curve.run}. *)

val report :
  ?sweep:sweep ->
  ?variants:variant list ->
  ?adjust:(Rig.spec -> Rig.spec) ->
  unit ->
  Nfsg_stats.Report.t

val bench_bootstorm :
  ?sweep:sweep ->
  ?variants:variant list ->
  ?adjust:(Rig.spec -> Rig.spec) ->
  unit ->
  Nfsg_stats.Json.t
(** The committed BENCH_bootstorm.json artifact: one fixed modest
    ladder (same bytes regardless of quick/full); arguments as {!run}. *)
