(* The three workloads. Each builds a fresh world through Rig, fills
   its file tree, drives one measured window of load through the NFS
   client, then checks the program's outputs. Everything a workload
   does is a pure function of its seed: the simulator is deterministic,
   so any two runs on one seed simulate exactly the same thing. *)

open Nfsg_sim
module Rig = Nfsg_experiments.Rig
module Calib = Nfsg_experiments.Calib
module Client = Nfsg_nfs.Client
module Proto = Nfsg_nfs.Proto
module Server = Nfsg_core.Server
module Volume = Nfsg_core.Volume
module Fs = Nfsg_ufs.Fs
module Buffer_cache = Nfsg_ufs.Buffer_cache
module Disk = Nfsg_disk.Disk
module Device = Nfsg_disk.Device
module File_writer = Nfsg_workload.File_writer
module Boot = Nfsg_workload.Boot
module Histogram = Nfsg_stats.Histogram
module Metrics = Nfsg_stats.Metrics

let names = [ "gather-copy"; "sfs-mix"; "boot-storm" ]

(* SPEC SFS 1.0's response-time limit: an RPC slower than this counts
   as a miss, as does any RPC that failed. *)
let slo_ms = 50.0

(* {1 What a run hands back} *)

type gc = { alloc_words : float; promoted_words : float; major_collections : int; top_heap_words : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    alloc_words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    promoted_words = s.Gc.promoted_words;
    major_collections = s.Gc.major_collections;
    top_heap_words = s.Gc.top_heap_words;
  }

type run = {
  rig : Rig.t;
  window : Probe.window;
  sim_window : Time.t;  (** simulated time under load *)
  host_setup : float;  (** Rig.make and the file tree: everything before the window *)
  host_run : float;  (** the measured window *)
  events : int;
  gc0 : gc;
  gc1 : gc;
  own_latency : Histogram.t option;
      (** per-RPC samples the workload timed itself (open loop, from
          each RPC's due instant); [None] = the client's own per-RPC
          histograms *)
  failed : int;  (** client errors that reached the driver *)
  outstanding_max : int;
  wire_writes : int;
  cpu_busy : Time.t;
  spindles : Device.stats array;  (** per spindle, over the window *)
  bad : string list;  (** failed output checks *)
}

(* {1 Shared driver plumbing} *)

type ctx = {
  rig : Rig.t;
  rng : Rng.t;
  mutable parent : int;  (** span of the phase the driver is in *)
  mutable clients : Client.t list;
  mutable servers : Server.t list;  (** incarnations, newest first *)
  mutable failed : int;
}

let now ctx () = Engine.now ctx.rig.Rig.eng
let call ctx ~layer name f = Spans.with_span ~parent:ctx.parent ~now:(now ctx) ~layer name (fun _ -> f ())

let new_client ctx addr =
  let c = Rig.new_client ctx.rig addr in
  ctx.clients <- c :: ctx.clients;
  c

let wire_writes ctx = List.fold_left (fun a c -> a + Client.wire_writes c) 0 ctx.clients

(* A failed call counts against the run and is not retried. *)
let guarded ctx f =
  match f () with
  | () -> ()
  | exception (Client.Error _ | Nfsg_rpc.Rpc_client.Timeout _) -> ctx.failed <- ctx.failed + 1

(* Run [n] simulated processes and wait for all of them. *)
let join ctx ~name n f =
  let left = ref n and all_done = Condition.create () in
  for i = 0 to n - 1 do
    Engine.spawn ctx.rig.Rig.eng
      ~name:(Printf.sprintf "%s-%d" name i)
      (fun () ->
        f i;
        decr left;
        if !left = 0 then Condition.broadcast all_done)
  done;
  while !left > 0 do
    Condition.wait all_done
  done

let fsck server =
  match Fs.check (Server.fs server) with Ok () -> [] | Error es -> [ "fsck: " ^ String.concat "; " es ]

(* {1 gather-copy: the paper's Table 3}

   A few client hosts, each with 4 biods, copy multi-MiB files one
   after another with sync-on-close, onto one RZ26 over FDDI with
   gathering on, no NVRAM and an unbounded cache. The write layer, UFS
   clustering and the platter do nearly all the work; read-ahead, NVRAM
   and the stripe driver sit idle. *)

module Gather_copy = struct
  let hosts = 2
  let files_per_host = 4
  let spec = Rig.default_spec

  type file = { dir : Proto.fh; name : string; size : int; pattern : int }

  (* Sizes vary by up to 128 KiB below 4 MiB and copies start within
     20 ms of each other, so seeds differ in interleaving, not in
     kind. *)
  let populate ctx =
    Array.init hosts (fun h ->
        let c = new_client ctx (Printf.sprintf "host%d" h) in
        let dir, _ = call ctx ~layer:"nfs" "mkdir" (fun () -> Client.mkdir c (Rig.root ctx.rig) (Printf.sprintf "h%d" h)) in
        let files =
          List.init files_per_host (fun i ->
              {
                dir;
                name = Printf.sprintf "copy%d" i;
                size = (4 lsl 20) - (8192 * Rng.int ctx.rng 17);
                pattern = Rng.int ctx.rng 251;
              })
        in
        (c, Time.us (Rng.int ctx.rng 20_000), files))

  let load ctx hosts_files =
    join ctx ~name:"copy" hosts (fun h ->
        let c, start, files = hosts_files.(h) in
        Engine.delay start;
        List.iter
          (fun f ->
            guarded ctx (fun () ->
                call ctx ~layer:"workload" "File_writer.run" (fun () ->
                    ignore
                      (File_writer.run ctx.rig.Rig.eng c ~dir:f.dir ~name:f.name ~total:f.size ~seed:f.pattern ()
                        : File_writer.result))))
          files)

  let check ctx hosts_files =
    Array.to_list hosts_files
    |> List.concat_map (fun (c, _, files) ->
           List.filter_map
             (fun f ->
               let ok =
                 call ctx ~layer:"workload" "File_writer.verify" (fun () ->
                     let fh, _ = Client.lookup c f.dir f.name in
                     File_writer.verify c ~fh ~total:f.size ~seed:f.pattern)
               in
               if ok then None else Some (Printf.sprintf "read-back of %s differs" f.name))
             files)
end

(* {1 sfs-mix: SPEC SFS 1.0 operation mix, open loop}

   Poisson arrivals at one fixed offered rate, each operation issued by
   a fresh simulated process at its due instant and timed from it, so a
   stall shows as latency and backlog instead of slowing the generator
   down (which is what Laddis.run's closed pacing does at saturation).
   16 stations, Prestoserve in front of a 3-spindle stripe, 12 nfsds, a
   server cache bounded to an eighth of the 32 MiB working set. This
   configuration's knee is near 150 RPC/s: from 160 RPC/s up, backlogs
   turn into retransmission storms on some seeds. 120 RPC/s is about
   four fifths of it. *)

module Sfs_mix = struct
  let stations = 16
  let files_per_station = 8
  let file_blocks = 32
  let links_per_station = 4
  let offered_rpc_s = 120.0
  let duration = Time.sec 120

  let spec =
    {
      Rig.default_spec with
      Rig.accel = true;
      spindles = 3;
      nfsds = 12;
      cache_blocks = Some (stations * files_per_station * file_blocks / 8);
    }

  type op = Lookup | Read | Write | Getattr | Readlink | Readdir | Create | Remove | Setattr | Statfs

  let mix =
    [
      (34.0, Lookup);
      (22.0, Read);
      (15.0, Write);
      (13.0, Getattr);
      (8.0, Readlink);
      (3.0, Readdir);
      (2.0, Create);
      (1.0, Remove);
      (1.0, Setattr);
      (1.0, Statfs);
    ]

  (* A write burst is 1-7 WRITE RPCs, 4 on average. *)
  let rpcs_per_op =
    let total = List.fold_left (fun a (w, _) -> a +. w) 0.0 mix in
    List.fold_left (fun a (w, op) -> a +. (w /. total *. if op = Write then 4.0 else 1.0)) 0.0 mix

  type station = {
    client : Client.t;
    dir : Proto.fh;
    files : (string * Proto.fh) array;
    links : Proto.fh array;
    mutable created : string list;
    mutable next_tmp : int;
  }

  let populate ctx =
    let root = Rig.root ctx.rig in
    let made = Array.make stations None in
    join ctx ~name:"populate" stations (fun s ->
        let c = new_client ctx (Printf.sprintf "st%d" s) in
        let nfs name f = call ctx ~layer:"nfs" name f in
        let dir, _ = nfs "mkdir" (fun () -> Client.mkdir c root (Printf.sprintf "st%d" s)) in
        let files =
          Array.init files_per_station (fun i ->
              let name = Printf.sprintf "f%d" i in
              let fh, _ = nfs "create_file" (fun () -> Client.create_file c dir name) in
              let f = Client.open_file c fh in
              for b = 0 to file_blocks - 1 do
                Client.write f ~off:(b * 8192) (Bytes.make 8192 'i')
              done;
              nfs "close" (fun () -> Client.close f);
              (name, fh))
        in
        let links =
          Array.init links_per_station (fun i ->
              fst
                (nfs "symlink" (fun () ->
                     Client.symlink c dir (Printf.sprintf "l%d" i) ~target:(Printf.sprintf "f%d" i))))
        in
        made.(s) <- Some { client = c; dir; files; links; created = []; next_tmp = 0 });
    Array.map Option.get made

  (* One operation, all of whose parameters were drawn by the generator
     so the sequence of operations depends only on the seed. Returns
     the RPCs it issued. *)
  let perform ctx st op ~pick ~blk ~burst =
    let c = st.client in
    let nfs name f = call ctx ~layer:"nfs" name f in
    let _, fh = st.files.(pick mod files_per_station) in
    match op with
    | Lookup ->
        ignore (nfs "lookup" (fun () -> Client.lookup c st.dir (fst st.files.(pick mod files_per_station))));
        1
    | Getattr ->
        ignore (nfs "getattr" (fun () -> Client.getattr c fh));
        1
    | Readlink ->
        ignore (nfs "readlink" (fun () -> Client.readlink c st.links.(pick mod links_per_station)));
        1
    | Read ->
        ignore (nfs "read" (fun () -> Client.read c fh ~off:(blk * 8192) ~len:8192));
        1
    | Write ->
        let f = Client.open_file c fh in
        for i = 0 to burst - 1 do
          Client.write f ~off:((blk + i) mod file_blocks * 8192) (Bytes.make 8192 'w')
        done;
        nfs "close" (fun () -> Client.close f);
        burst
    | Readdir ->
        ignore (nfs "readdir" (fun () -> Client.readdir c st.dir));
        1
    | Remove when st.created <> [] ->
        let name = List.hd st.created in
        st.created <- List.tl st.created;
        nfs "remove" (fun () -> Client.remove c st.dir name);
        1
    | Create | Remove ->
        (* A REMOVE with nothing of its own to remove creates instead,
           so it still does directory work and never fails. *)
        st.next_tmp <- st.next_tmp + 1;
        let name = Printf.sprintf "tmp%d" st.next_tmp in
        ignore (nfs "create_file" (fun () -> Client.create_file c st.dir name));
        st.created <- name :: st.created;
        1
    | Setattr ->
        let mtime = Proto.timeval_of_ns (Engine.now ctx.rig.Rig.eng) in
        ignore (nfs "setattr" (fun () -> Client.setattr c fh { Proto.sattr_none with Proto.s_mtime = Some mtime }));
        1
    | Statfs ->
        ignore (nfs "statfs" (fun () -> Client.statfs c st.dir));
        1

  type load = { latency : Histogram.t; mutable outstanding : int; mutable outstanding_max : int }

  let load ctx sts =
    let eng = ctx.rig.Rig.eng in
    let l = { latency = Probe.fine_histogram (); outstanding = 0; outstanding_max = 0 } in
    let drained = Condition.create () in
    let mean_gap = rpcs_per_op /. offered_rpc_s in
    let t_stop = Engine.now eng + duration in
    let rec generate seq =
      Engine.delay (Time.of_sec_f (Rng.exponential ctx.rng mean_gap));
      if Engine.now eng < t_stop then begin
        let st = sts.(Rng.int ctx.rng stations) in
        let op = Rng.weighted ctx.rng mix in
        let pick = Rng.int ctx.rng 1024 and blk = Rng.int ctx.rng file_blocks in
        let burst = 1 + Rng.int ctx.rng 7 in
        let due = Engine.now eng in
        l.outstanding <- l.outstanding + 1;
        l.outstanding_max <- Stdlib.max l.outstanding_max l.outstanding;
        Engine.spawn eng ~name:(Printf.sprintf "sfs-%d" seq) (fun () ->
            (match perform ctx st op ~pick ~blk ~burst with
            | rpcs ->
                let us = Time.to_us_f (Engine.now eng - due) in
                for _ = 1 to rpcs do
                  Histogram.add l.latency us
                done
            | exception (Client.Error _ | Nfsg_rpc.Rpc_client.Timeout _) -> ctx.failed <- ctx.failed + 1);
            l.outstanding <- l.outstanding - 1;
            if l.outstanding = 0 then Condition.broadcast drained);
        generate (seq + 1)
      end
    in
    generate 0;
    while l.outstanding > 0 do
      Condition.wait drained
    done;
    l
end

(* {1 boot-storm: a diskless fleet after a power cut}

   16 diskless clients boot (Boot.boot: mount, a cold and a warm walk
   of the 672 KiB boot set) against the read-only export right after a
   server power cycle, with read-ahead on and a bounded cache the boot
   set fits in. Only the read path runs; the write layer is idle, so a
   change that helps writes but costs the shared buffer cache or disk
   queue shows up here. One storm's figures swing by a third with the
   order the fleet powers on in, so the window holds several storms,
   each after its own power cycle and with its own power-on order. *)

module Boot_storm = struct
  let clients = 16
  let storms = 8

  let spec =
    {
      Rig.default_spec with
      Rig.nfsds = 16;
      cache_blocks = Some 256;
      readahead = Some Buffer_cache.default_readahead;
    }

  let populate ctx =
    let admin = new_client ctx "admin" in
    call ctx ~layer:"workload" "Boot.populate" (fun () -> Boot.populate admin (Rig.root ctx.rig));
    List.iter (fun v -> Volume.set_read_only v true) (Server.volumes ctx.rig.Rig.server)

  (* Power-cycles the server, then boots the fleet, each member powering
     on within 80 ms (drawn from the seed). Returns the bytes the fleet
     read and the storm's span, power-on of the first to the prompt of
     the last. *)
  let storm ctx k =
    let eng = ctx.rig.Rig.eng in
    let old = List.hd ctx.servers in
    Server.crash old;
    Engine.delay (Time.ms 50);
    ctx.servers <- Server.restart old :: ctx.servers;
    let power_on = Array.init clients (fun _ -> Time.us (Rng.int ctx.rng 80_000)) in
    let bytes = ref 0 and t0 = Engine.now eng in
    join ctx ~name:"boot" clients (fun i ->
        Engine.delay power_on.(i);
        let c = new_client ctx (Printf.sprintf "ws%d-%d" k i) in
        guarded ctx (fun () ->
            let s = call ctx ~layer:"workload" "Boot.boot" (fun () -> Boot.boot eng c ~export:"/export") in
            bytes := !bytes + s.Boot.bytes_read));
    (!bytes, Engine.now eng - t0)

  let load ctx =
    List.init storms (storm ctx)
    |> List.fold_left (fun (b, t) (b', t') -> (b + b', t + t')) (0, 0)

  let check bytes =
    let want = storms * clients * 2 * Boot.total_bytes in
    if bytes = want then [] else [ Printf.sprintf "boot-storm read %d bytes, expected %d" bytes want ]
end

(* {1 One measured run} *)

let spec_of = function
  | "gather-copy" -> Gather_copy.spec
  | "sfs-mix" -> Sfs_mix.spec
  | "boot-storm" -> Boot_storm.spec
  | w -> invalid_arg ("unknown workload " ^ w)

(* The names Rig gives a one-volume world's spindles: their histograms
   are registered before Rig.make creates the disks. *)
let disk_names spec = List.init spec.Rig.spindles (Printf.sprintf "rz26-%d")

(* What a workload's window hands back besides counter deltas. *)
type window_out = {
  own : Sfs_mix.load option;
  busy : Time.t option;  (** simulated time under load, when not the whole window *)
  check : unit -> string list;
}

let run ~workload ~seed ~trace =
  let spec = { (spec_of workload) with Rig.trace } in
  let m = Metrics.create () in
  Probe.preregister m ~disks:(disk_names spec);
  Rig.set_metrics_sink (Some m);
  let h0 = Unix.gettimeofday () in
  let rig = Spans.with_span ~layer:"setup" "world" (fun _ -> Rig.make spec) in
  let eng = rig.Rig.eng in
  let out = ref None in
  Rig.run rig (fun () ->
      let ctx = { rig; rng = Rng.create seed; parent = 0; clients = []; servers = [ rig.Rig.server ]; failed = 0 } in
      let now () = Engine.now eng in
      (* Set-up is everything before the window; [window] runs the
         load. *)
      let window =
        Spans.with_span ~now ~layer:"setup" "populate" (fun span ->
            ctx.parent <- span;
            match workload with
            | "gather-copy" ->
                let files = Gather_copy.populate ctx in
                fun () ->
                  Gather_copy.load ctx files;
                  { own = None; busy = None; check = (fun () -> Gather_copy.check ctx files) }
            | "sfs-mix" ->
                let sts = Sfs_mix.populate ctx in
                fun () -> { own = Some (Sfs_mix.load ctx sts); busy = None; check = (fun () -> []) }
            | _ ->
                Boot_storm.populate ctx;
                fun () ->
                  let bytes, busy = Boot_storm.load ctx in
                  { own = None; busy = Some busy; check = (fun () -> Boot_storm.check bytes) })
      in
      let h2 = Unix.gettimeofday () in
      let s0 = Probe.snapshot m and ev0 = Engine.events_processed eng and t0 = now () in
      let cpu = List.map (fun s -> (s, Resource.busy_time (Server.cpu s))) ctx.servers in
      let ww0 = wire_writes ctx in
      let disk0 = Array.map (fun d -> d.Device.spindle_stats ()) rig.Rig.disks in
      let gc0 = gc_now () in
      let o =
        Spans.with_span ~now ~layer:"workload" "run" (fun span ->
            ctx.parent <- span;
            window ())
      in
      let gc1 = gc_now () in
      let h3 = Unix.gettimeofday () in
      let t1 = now () and ev1 = Engine.events_processed eng in
      let s1 = Probe.snapshot m in
      let spindles =
        Array.mapi
          (fun i d ->
            let a = d.Device.spindle_stats () and b = disk0.(i) in
            {
              Device.transactions = a.Device.transactions - b.Device.transactions;
              bytes_moved = a.Device.bytes_moved - b.Device.bytes_moved;
              busy_time = a.Device.busy_time - b.Device.busy_time;
            })
          rig.Rig.disks
      in
      (* Every incarnation's CPU, less what each had done before the
         window. *)
      let cpu_busy =
        List.fold_left
          (fun a s -> a + Resource.busy_time (Server.cpu s) - Option.value (List.assq_opt s cpu) ~default:0)
          0 ctx.servers
      in
      let server = List.hd ctx.servers in
      let bad = o.check () @ Spans.with_span ~now ~layer:"ufs" "Fs.check" (fun _ -> fsck server) in
      out :=
        Some
          {
            rig;
            window = { Probe.s0; s1 };
            sim_window = Option.value o.busy ~default:(t1 - t0);
            host_setup = h2 -. h0;
            host_run = h3 -. h2;
            events = ev1 - ev0;
            gc0;
            gc1;
            own_latency = Option.map (fun l -> l.Sfs_mix.latency) o.own;
            failed = ctx.failed;
            outstanding_max = (match o.own with Some l -> l.Sfs_mix.outstanding_max | None -> 0);
            wire_writes = wire_writes ctx - ww0;
            cpu_busy;
            spindles;
            bad;
          });
  Rig.set_metrics_sink None;
  Option.get !out

(* Disk.create on its own, the set-up cost every spindle of every world
   pays; only its span is kept. *)
let disk_create () =
  Spans.with_span ~layer:"disk" "Disk.create" (fun _ ->
      ignore (Disk.create (Engine.create ()) ~name:"probe" Calib.disk_geometry : Device.t))
