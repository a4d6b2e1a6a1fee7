(* Crash-recovery demo: the stable-storage promise, observed.

   A client writes a file through the gathering server; the moment
   close() returns, every write has been acknowledged — so the data
   must survive a server power failure, even though the server was
   batching metadata updates. We crash the server mid-run, recover the
   device, remount, fsck, and verify byte-for-byte.

   Run with:  dune exec examples/crash_recovery.exe *)

open Nfsg_sim
module Disk = Nfsg_disk.Disk
module Nvram = Nfsg_disk.Nvram
module Segment = Nfsg_net.Segment
module Socket = Nfsg_net.Socket
module Server = Nfsg_core.Server
module Volume = Nfsg_core.Volume
module Client = Nfsg_nfs.Client
module Rpc_client = Nfsg_rpc.Rpc_client
module Fs = Nfsg_ufs.Fs

let scenario ~accel =
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let disk = Disk.create eng (Disk.rz26 ()) in
  let device = if accel then Nvram.create eng disk else disk in
  let server =
    Server.make eng ~segment ~addr:"server" Server.default_config [ Volume.spec "/export" device ]
  in
  let sock = Socket.create segment ~addr:"client" () in
  let rpc = Rpc_client.create eng ~sock ~server:"server" () in
  let client = Client.create eng ~rpc ~biods:8 () in
  let total = 512 * 1024 in
  let payload = Bytes.init total (fun i -> Char.chr ((i * 7) mod 251)) in
  Engine.spawn eng ~name:"app" (fun () ->
      let root = Server.root_fh server in
      let fh, _ = Client.create_file client root "precious.dat" in
      let f = Client.open_file client fh in
      Client.write f ~off:0 payload;
      Client.close f;
      (* close() returned: all 64 writes acknowledged. Pull the plug. *)
      Printf.printf "  t=%.1fms  close() returned; crashing the server now\n"
        (Time.to_ms_f (Engine.now eng));
      Server.crash server);
  Engine.run eng;
  (* Power is back: recover the device (NVRAM replays to the platter),
     remount (fsck rebuilds the bitmap), and inspect what survived. *)
  device.Nfsg_disk.Device.recover ();
  let fs = Fs.mount eng device in
  Engine.spawn eng ~name:"inspector" (fun () ->
      (match Fs.check fs with
      | Ok () -> print_endline "  fsck: filesystem consistent after crash"
      | Error es ->
          Printf.printf "  fsck found %d problems:\n" (List.length es);
          List.iter (fun e -> Printf.printf "    %s\n" e) es);
      let f = Fs.lookup fs (Fs.root fs) "precious.dat" in
      let back = Fs.read fs f ~off:0 ~len:total in
      if Bytes.equal back payload then
        Printf.printf "  all %d acknowledged bytes survived the crash\n" total
      else print_endline "  DATA LOST — the stable-storage promise was broken!");
  Engine.run eng

let () =
  print_endline "Crash recovery on a plain disk (gathered writes, delayed data):";
  scenario ~accel:false;
  print_newline ();
  print_endline "Crash recovery with Prestoserve NVRAM (battery-backed replay):";
  scenario ~accel:true
