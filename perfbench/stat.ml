(* Pure statistics helpers of the benchmark. Latency quantiles are
   computed from the per-bucket counts a histogram gained during the
   measured window, so samples recorded while the world was populated
   never leak into the window's percentiles. *)

type bucket = { lo : float; hi : float; count : int }

let total buckets = List.fold_left (fun a b -> a + b.count) 0 buckets

(* Buckets are identified by their lower edge: every histogram read
   here keeps one fixed shape for its whole life. *)
let by_lo buckets =
  let tbl = Hashtbl.create (List.length buckets) in
  List.iter (fun b -> Hashtbl.replace tbl b.lo b) buckets;
  tbl

let sorted buckets = List.sort (fun a b -> compare a.lo b.lo) buckets

let delta ~before ~after =
  let prev = by_lo before in
  List.filter_map
    (fun b ->
      let c0 = match Hashtbl.find_opt prev b.lo with Some p -> p.count | None -> 0 in
      if b.count < c0 then invalid_arg "Stat.delta: a bucket count went down";
      if b.count = c0 then None else Some { b with count = b.count - c0 })
    after
  |> sorted

let merge lists =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun b ->
         match Hashtbl.find_opt tbl b.lo with
         | Some p -> Hashtbl.replace tbl b.lo { p with count = p.count + b.count }
         | None -> Hashtbl.replace tbl b.lo b))
    lists;
  Hashtbl.fold (fun _ b acc -> b :: acc) tbl [] |> sorted

(* Rank of the q-quantile sample among [n], 0-based, by the rounding
   Histogram.quantile uses. *)
let rank ~n q = Stdlib.min (n - 1) (int_of_float (Float.round (q *. float_of_int (n - 1))))

(* A bucket's samples are taken as spread evenly over it in rank,
   geometrically between its edges (linearly in the underflow bucket
   [0, least)). Interpolating keeps a quantile continuous in the counts:
   one more sample moves it by a fraction of a bucket, not a whole
   one. *)
let within b ~pos =
  let f = (float_of_int pos +. 0.5) /. float_of_int b.count in
  if b.lo <= 0.0 then b.hi *. f else b.lo *. ((b.hi /. b.lo) ** f)

let quantile buckets q =
  let n = total buckets in
  if n = 0 then 0.0
  else begin
    let target = rank ~n (Float.max 0.0 (Float.min 1.0 q)) in
    let rec walk seen = function
      | [] -> 0.0
      | b :: rest -> if seen + b.count > target then within b ~pos:(target - seen) else walk (seen + b.count) rest
    in
    walk 0 (sorted buckets)
  end

(* Share of samples above [x], counting a bucket's samples as spread
   over it the same way. *)
let frac_above buckets x =
  let n = total buckets in
  if n = 0 then 0.0
  else
    let over =
      List.fold_left
        (fun a b ->
          if b.lo >= x then a +. float_of_int b.count
          else if b.hi <= x then a
          else
            let below = if b.lo <= 0.0 then x /. b.hi else log (x /. b.lo) /. log (b.hi /. b.lo) in
            a +. (float_of_int b.count *. (1.0 -. below)))
        0.0 buckets
    in
    over /. float_of_int n

let samples_beyond ~n q = if n = 0 then 0 else n - 1 - rank ~n q

let percentile_ladder = [ 99.99; 99.9; 99.0; 90.0; 50.0 ]

let highest_percentile n =
  List.find_opt (fun p -> samples_beyond ~n (p /. 100.0) >= 10) percentile_ladder

(* Median as Python's statistics.median: the mean of the two middle
   values of an even-sized sample. *)
let median = function
  | [] -> invalid_arg "Stat.median: empty"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
