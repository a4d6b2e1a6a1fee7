(* Unit tests of the benchmark's pure helpers. *)

open Perfbench_stat

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let b lo hi count = { Stat.lo; hi; count }
let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* Highest percentile with at least ten samples beyond it. *)
  check "n=1000 resolves p99" (Stat.highest_percentile 1000 = Some 99.0);
  check "n=952 still resolves p99" (Stat.highest_percentile 952 = Some 99.0);
  check "n=951 falls back to p90" (Stat.highest_percentile 951 = Some 90.0);
  check "n=10000 resolves p99.9" (Stat.highest_percentile 10_000 = Some 99.9);
  check "n=10 resolves nothing" (Stat.highest_percentile 10 = None);
  check "ten beyond p99 of 1000" (Stat.samples_beyond ~n:1000 0.99 = 10);
  check "nothing beyond the max" (Stat.samples_beyond ~n:7 1.0 = 0);
  (* Bucket deltas: only what the window added, matched by lower edge. *)
  let before = [ b 0.0 1.0 3; b 10.0 20.0 5 ] in
  let after = [ b 0.0 1.0 3; b 10.0 20.0 7; b 40.0 80.0 2 ] in
  let d = Stat.delta ~before ~after in
  check "delta drops unchanged buckets" (d = [ b 10.0 20.0 2; b 40.0 80.0 2 ]);
  check "delta total" (Stat.total d = 4);
  check "delta rejects a shrinking bucket"
    (match Stat.delta ~before:after ~after:before with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* Quantiles interpolate by rank inside the bucket: geometrically
     between its edges, linearly in the underflow bucket. *)
  check "median of the delta" (close (Stat.quantile d 0.5) (40.0 *. (2.0 ** 0.25)));
  check "p0 of the delta" (close (Stat.quantile d 0.0) (10.0 *. (2.0 ** 0.25)));
  check "underflow interpolates linearly" (close (Stat.quantile [ b 0.0 1.0 4 ] 0.5) 0.625);
  check "empty quantile" (Stat.quantile [] 0.99 = 0.0);
  (* Merging per-procedure histograms, and the limit share. *)
  let m = Stat.merge [ [ b 10.0 20.0 1 ]; [ b 10.0 20.0 2; b 40.0 80.0 1 ] ] in
  check "merge sums same buckets" (m = [ b 10.0 20.0 3; b 40.0 80.0 1 ]);
  check "frac above a bucket edge" (close (Stat.frac_above m 40.0) 0.25);
  check "frac above inside a bucket"
    (close (Stat.frac_above m 50.0) ((1.0 -. (log 1.25 /. log 2.0)) /. 4.0));
  (* Medians as Python's statistics.median computes them. *)
  check "odd median" (Stat.median [ 3.0; 1.0; 2.0 ] = 2.0);
  check "even median" (Stat.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  if !failures > 0 then exit 1
