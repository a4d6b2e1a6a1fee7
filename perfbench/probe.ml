(* Window readings of the simulator's own Metrics instruments. A
   snapshot copies every counter and histogram of a registry, so
   a layer's work over the measured window is the difference of two
   snapshots and nothing inside lib/ needs instrumenting. *)

module Metrics = Nfsg_stats.Metrics
module Json = Nfsg_stats.Json
module Histogram = Nfsg_stats.Histogram
module Names = Nfsg_stats.Names
module Stat = Perfbench_stat.Stat

type hist = { n : int; sum : float; buckets : Stat.bucket list }
type value = Counter of int | Hist of hist

(* Keyed "ns/name". *)
type snapshot = (string, value) Hashtbl.t

let empty_hist = { n = 0; sum = 0.0; buckets = [] }

let hist_of_json j =
  let num k = Option.bind (Json.member k j) Json.to_float |> Option.value ~default:0.0 in
  let bucket = function
    | Json.List [ lo; hi; Json.Int count ] ->
        let f v = Option.value (Json.to_float v) ~default:0.0 in
        { Stat.lo = f lo; hi = f hi; count }
    | _ -> invalid_arg "Probe: malformed histogram bucket"
  in
  let buckets =
    match Option.bind (Json.member "buckets" j) Json.to_list with
    | Some bs -> List.map bucket bs
    | None -> []
  in
  { n = int_of_float (num "count"); sum = num "total"; buckets }

let snapshot m : snapshot =
  let tbl = Hashtbl.create 256 in
  let section ns body kind f =
    match Json.member kind body with
    | Some (Json.Obj fields) -> List.iter (fun (name, v) -> Hashtbl.replace tbl (ns ^ "/" ^ name) (f v)) fields
    | _ -> ()
  in
  (match Json.member "namespaces" (Metrics.to_json m) with
  | Some (Json.Obj nss) ->
      List.iter
        (fun (ns, body) ->
          section ns body "counters" (fun v -> Counter (Option.value (Json.to_int v) ~default:0));
          section ns body "histograms" (fun v -> Hist (hist_of_json v)))
        nss
  | _ -> ());
  tbl

let counter s key = match Hashtbl.find_opt s key with Some (Counter c) -> c | _ -> 0
let hist s key = match Hashtbl.find_opt s key with Some (Hist h) -> h | _ -> empty_hist

(* {1 Differences over the window} *)

type window = { s0 : snapshot; s1 : snapshot }

let count w key = counter w.s1 key - counter w.s0 key

let hist_delta w key =
  let h0 = hist w.s0 key and h1 = hist w.s1 key in
  { n = h1.n - h0.n; sum = h1.sum -. h0.sum; buckets = Stat.delta ~before:h0.buckets ~after:h1.buckets }

let merged w ks =
  let hs = List.map (hist_delta w) ks in
  {
    n = List.fold_left (fun a h -> a + h.n) 0 hs;
    sum = List.fold_left (fun a h -> a +. h.sum) 0.0 hs;
    buckets = Stat.merge (List.map (fun h -> h.buckets) hs);
  }

let mean h = if h.n = 0 then 0.0 else h.sum /. float_of_int h.n

(* {1 Registration before the world exists}

   Instruments are find-or-create and keep the shape of their first
   registration, so registering the latency histograms the benchmark
   reads at 1% bucket growth before Rig.make builds the world fixes
   their resolution: at the default 25% growth one stray sample can
   move a p99 by a whole bucket. *)

let fine = (1.0, 1.01, 2400)

let register_fine m ~ns name =
  let least, growth, buckets = fine in
  ignore (Metrics.histogram m ~ns ~least ~growth ~buckets name : Histogram.t)

let fine_histogram () =
  let least, growth, buckets = fine in
  Histogram.create ~least ~growth ~buckets ()

let nfs_procs = [ 0; 1; 2; 4; 5; 6; 8; 9; 10; 11; 13; 14; 15; 16; 17 ]

let preregister m ~disks =
  List.iter
    (fun p -> register_fine m ~ns:Names.Ns.nfs_client (Names.lat_us (Nfsg_nfs.Proto.proc_name p)))
    nfs_procs;
  List.iter (fun p -> register_fine m ~ns:Names.Ns.journey (Names.phase_us p)) Names.journey_phases;
  register_fine m ~ns:Names.Ns.journey Names.total_us;
  List.iter (fun d -> register_fine m ~ns:(Names.Ns.disk d) Names.queue_wait_us) disks;
  register_fine m ~ns:Names.Ns.rpc_client Names.rtt_us;
  register_fine m ~ns:Names.Ns.write_layer Names.reply_latency_us

(* The registry's whole state except the trace ring's own loss
   counters, which a traced world legitimately moves: equal digests
   mean two runs simulated the same thing. *)
let digest m =
  match Metrics.to_json m with
  | Json.Obj fields ->
      let strip = function
        | "namespaces", Json.Obj nss -> ("namespaces", Json.Obj (List.filter (fun (ns, _) -> ns <> Names.Ns.trace) nss))
        | f -> f
      in
      Digest.to_hex (Digest.string (Json.to_string (Json.Obj (List.map strip fields))))
  | j -> Digest.to_hex (Digest.string (Json.to_string j))
