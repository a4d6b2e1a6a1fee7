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

(** {1 Running}

    Each configuration walks the whole fleet ladder, one fresh world
    per rung; the one-client rung sets the offered scale, and knee and
    capacity come from {!Laddis_curve.detect_knee} and
    {!Laddis_curve.capacity_rating} at [knee_frac]. [variants] defaults
    to {!variants}; [adjust] (default identity) is applied to each
    rung's spec just before its world is built, so it wins over the
    configuration's own choices. *)

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
    ladder (same bytes regardless of quick/full). *)
