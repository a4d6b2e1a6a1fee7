open Nfsg_sim
module Segment = Nfsg_net.Segment
module Socket = Nfsg_net.Socket
module Disk = Nfsg_disk.Disk
module Nvram = Nfsg_disk.Nvram
module Stripe = Nfsg_disk.Stripe
module Device = Nfsg_disk.Device
module Server = Nfsg_core.Server
module Volume = Nfsg_core.Volume
module Write_layer = Nfsg_core.Write_layer
module Client = Nfsg_nfs.Client
module Rpc_client = Nfsg_rpc.Rpc_client
module Metrics = Nfsg_stats.Metrics
module Histogram = Nfsg_stats.Histogram
module Names = Nfsg_stats.Names
module Json = Nfsg_stats.Json

type env = {
  eng : Engine.t;
  metrics : Metrics.t;
  charge : Time.t -> unit;
  on_transaction : bytes:int -> unit;
}

type storage = { raw : Device.t array; exports : Device.t list }

type spec = {
  net : Calib.net;
  accel : bool;
  spindles : int;
  nfsds : int;
  gathering : bool;
  trace : bool;
  cache_blocks : int option;
  readahead : Nfsg_ufs.Buffer_cache.readahead option;
  disk_scheduler : Disk.scheduler;
  raid_level : Stripe.level;
  costs : Nfsg_core.Cpu_model.t option;
  long_op_threshold : Time.t option;
  monitor_interval : Time.t option;
  monitor_emit : (string -> unit) option;
  write_layer_overrides : Write_layer.config -> Write_layer.config;
}

let default_spec =
  {
    net = Calib.Fddi;
    accel = false;
    spindles = 1;
    nfsds = 8;
    gathering = true;
    trace = false;
    cache_blocks = None;
    readahead = None;
    disk_scheduler = Disk.Fifo;
    raid_level = Stripe.Raid0;
    costs = None;
    long_op_threshold = None;
    monitor_interval = None;
    monitor_emit = None;
    write_layer_overrides = (fun c -> c);
  }

type t = {
  spec : spec;
  eng : Engine.t;
  segment : Segment.t;
  disks : Device.t array;
  server : Server.t;
  trace : Nfsg_stats.Trace.t option;
  metrics : Metrics.t;
}

(* Optional shared sink: lets a CLI flag collect the instruments of
   every world an experiment builds into one registry without threading
   a parameter through every table/figure function. *)
(* nfslint: allow S001 a registry parked across the worlds of a whole experiment on purpose; every caller clears it when done *)
let sink : Metrics.t option ref = ref None
let set_metrics_sink m = sink := m
let metrics t = t.metrics

(* The paper's stacks: [spindles] disks, a stripe set or redundant
   array over several, Prestoserve in front when [accel]. *)
let default_storage spec (env : env) =
  let disks =
    Array.init spec.spindles (fun i ->
        Disk.create env.eng ~name:(Printf.sprintf "rz26-%d" i) ~metrics:env.metrics
          ~on_transaction:env.on_transaction ~scheduler:spec.disk_scheduler Calib.disk_geometry)
  in
  let base =
    if spec.spindles = 1 then disks.(0)
    else
      Stripe.device
        (Stripe.create env.eng ~metrics:env.metrics ~level:spec.raid_level ~chunk:32768 disks)
  in
  let device =
    if spec.accel then
      Nvram.create env.eng ~params:Calib.nvram_params ~metrics:env.metrics ~cpu_charge:env.charge
        base
    else base
  in
  { raw = disks; exports = [ device ] }

let make ?seed ?storage ?metrics spec =
  let eng = Engine.create () in
  let metrics =
    match (metrics, !sink) with Some m, _ | None, Some m -> m | None, None -> Metrics.create ()
  in
  let segment = Segment.create eng ?seed ~metrics (Calib.segment_params spec.net) in
  (* Forward reference: devices exist before the server CPU does. *)
  let cpu_hook = ref (fun (_ : Time.t) -> ()) in
  let costs = match spec.costs with Some c -> c | None -> Calib.cpu_costs spec.net in
  let charge d = !cpu_hook d in
  let driver_cost = costs.Nfsg_core.Cpu_model.driver_transaction in
  let env = { eng; metrics; charge; on_transaction = (fun ~bytes:_ -> charge driver_cost) } in
  let storage = (Option.value storage ~default:(default_storage spec)) env in
  let trace = if spec.trace then Some (Nfsg_stats.Trace.create eng) else None in
  let write_layer =
    let base_cfg =
      if spec.gathering then
        { Write_layer.default_gathering with Write_layer.procrastinate = Calib.procrastinate spec.net }
      else Write_layer.standard
    in
    spec.write_layer_overrides base_cfg
  in
  let config =
    {
      Server.default_config with
      Server.nfsds = spec.nfsds;
      write_layer;
      costs;
      long_op_threshold = spec.long_op_threshold;
    }
  in
  let export v =
    match storage.exports with [ _ ] -> "/export" | _ -> Printf.sprintf "/export%d" v
  in
  let server =
    Server.make eng ~segment ~addr:"server" ?trace ~metrics config
      (List.mapi
         (fun v device ->
           Volume.spec ?cache_blocks:spec.cache_blocks ?readahead:spec.readahead (export v) device)
         storage.exports)
  in
  (cpu_hook := fun d -> Resource.charge (Server.cpu server) d);
  { spec; eng; segment; disks = storage.raw; server; trace; metrics }

let new_client t ?(biods = 4) ?(protocol = Client.V2) ?(metrics = t.metrics) addr =
  let sock = Socket.create t.segment ~addr () in
  let rpc = Rpc_client.create t.eng ~sock ~server:"server" ~metrics () in
  Client.create t.eng ~rpc ~biods ~protocol ~metrics ()

let root t = Server.root_fh t.server

let run t f =
  let monitor =
    match t.spec.monitor_interval with
    | Some interval ->
        let m =
          Nfsg_stats.Monitor.create t.eng ~metrics:t.metrics ~interval ?emit:t.spec.monitor_emit ()
        in
        Nfsg_stats.Monitor.start m;
        Some m
    | None -> None
  in
  let result = ref None in
  Engine.spawn t.eng ~name:"driver" (fun () ->
      let v = f () in
      (* The monitor's rearming timer keeps the event queue non-empty;
         stop it with the load or Engine.run never returns. *)
      Option.iter Nfsg_stats.Monitor.stop monitor;
      (* With long-op tracing armed, dump whatever the ring retained
         once the driven load is over — through the same emit callback,
         so the rig itself still never prints. *)
      (match (t.spec.long_op_threshold, t.spec.monitor_emit) with
      | Some _, Some emit ->
          let plane = Server.journeys t.server in
          if Nfsg_stats.Journey.long_op_count plane > 0 then begin
            emit "long-op records:\n";
            emit (Nfsg_stats.Journey.render_long_ops plane)
          end
      | _ -> ());
      result := Some v);
  Engine.run t.eng;
  match !result with
  | Some v -> v
  | None -> failwith "Rig.run: driver process blocked forever"

type window = { elapsed : Time.t; cpu_pct : float; disk_kb_s : float; disk_trans_s : float }

let spindle_stats t =
  Array.fold_left (fun acc d -> Device.add_stats acc (d.Device.spindle_stats ())) Device.zero_stats t.disks

let measure t f =
  let cpu = Server.cpu t.server in
  let t0 = Engine.now t.eng in
  let busy0 = Resource.busy_time cpu in
  let d0 = spindle_stats t in
  let v = f () in
  let t1 = Engine.now t.eng in
  let d1 = spindle_stats t in
  let trans = d1.Device.transactions - d0.Device.transactions in
  let busy1 = Resource.busy_time cpu in
  let elapsed = Stdlib.max 1 (t1 - t0) in
  let sec = Time.to_sec_f elapsed in
  ( v,
    {
      elapsed;
      cpu_pct = 100.0 *. float_of_int (busy1 - busy0) /. float_of_int elapsed;
      disk_kb_s = float_of_int (d1.Device.bytes_moved - d0.Device.bytes_moved) /. 1024.0 /. sec;
      disk_trans_s = float_of_int trans /. sec;
    } )

type latency = { mean_us : float; p50_us : float; p99_us : float }

let write_latency m =
  match Metrics.find_histogram m ~ns:Names.Ns.nfs_client (Names.lat_us "WRITE") with
  | Some h -> { mean_us = Histogram.mean h; p50_us = Histogram.median h; p99_us = Histogram.p99 h }
  | None -> { mean_us = 0.0; p50_us = 0.0; p99_us = 0.0 }

let latency_json l =
  Json.Obj
    [
      ("mean_us", Json.Float l.mean_us); ("p50_us", Json.Float l.p50_us); ("p99_us", Json.Float l.p99_us);
    ]

(* Every committed BENCH_*.json shares this envelope; the format
   version lives here and nowhere else. *)
let artifact ~bench ~workload fields =
  Json.Obj
    (("schema", Json.String "nfsgather-bench/1")
    :: ("bench", Json.String bench)
    :: ("workload", Json.Obj (("net", Json.String "fddi") :: workload))
    :: fields)
