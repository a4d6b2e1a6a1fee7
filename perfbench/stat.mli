(** Pure statistics helpers of the benchmark: quantiles over histogram
    bucket deltas, the sample-count rule for tail percentiles, and the
    median used to summarise host-time repetitions. *)

type bucket = { lo : float; hi : float; count : int }
(** One histogram bucket [\[lo, hi)] and how many samples landed in
    it. [lo = 0] marks the underflow bucket. *)

val total : bucket list -> int

val delta : before:bucket list -> after:bucket list -> bucket list
(** Samples one histogram gained between two snapshots, bucket by
    bucket (matched by lower edge), ascending, empty buckets dropped.
    Raises [Invalid_argument] if a count went down. *)

val merge : bucket list list -> bucket list
(** Sum several same-shaped histograms' buckets, ascending. *)

val quantile : bucket list -> float -> float
(** [quantile bs q]: the [q]-quantile sample, ranked by the rule of
    [Nfsg_stats.Histogram.quantile] and placed inside its bucket by
    interpolating on its rank there (geometrically between the edges,
    linearly in the underflow bucket); 0 when empty. *)

val frac_above : bucket list -> float -> float
(** Share of samples above the limit, a straddling bucket's samples
    counted as spread over it as {!quantile} spreads them; 0 when
    empty. *)

val samples_beyond : n:int -> float -> int
(** Samples ranked after the [q]-quantile sample of [n]. *)

val highest_percentile : int -> float option
(** The highest of 99.99, 99.9, 99, 90 and 50 that leaves at least ten
    samples beyond it out of [n]; [None] below 11 samples. *)

val median : float list -> float
(** Middle value; the mean of the two middle values for an even count.
    Raises [Invalid_argument] on an empty list. *)
