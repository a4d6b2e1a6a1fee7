(* Quickstart: build a simulated world by hand — disk, network, NFS
   server with write gathering, one client — write a file through the
   protocol stack, read it back, and print what the server did.

   Run with:  dune exec examples/quickstart.exe *)

open Nfsg_sim
module Disk = Nfsg_disk.Disk
module Segment = Nfsg_net.Segment
module Socket = Nfsg_net.Socket
module Server = Nfsg_core.Server
module Volume = Nfsg_core.Volume
module Write_layer = Nfsg_core.Write_layer
module Client = Nfsg_nfs.Client
module Rpc_client = Nfsg_rpc.Rpc_client

let () =
  (* One simulated world. Everything below shares its virtual clock. *)
  let eng = Engine.create () in

  (* A private FDDI segment and an RZ26-class disk. *)
  let segment = Segment.create eng Segment.fddi in
  let disk = Disk.create eng (Disk.rz26 ()) in

  (* The NFS server: 8 nfsds, write gathering on (the default). *)
  let server =
    Server.make eng ~segment ~addr:"server" Server.default_config [ Volume.spec "/export" disk ]
  in

  (* A client host with 7 biods — the paper's sweet spot. *)
  let sock = Socket.create segment ~addr:"client" () in
  let rpc = Rpc_client.create eng ~sock ~server:"server" () in
  let client = Client.create eng ~rpc ~biods:7 () in

  (* The workload runs as a simulation process. *)
  Engine.spawn eng ~name:"app" (fun () ->
      let root = Server.root_fh server in
      let fh, _attr = Client.create_file client root "hello.dat" in

      (* Write 1 MB through the write-behind cache. *)
      let f = Client.open_file client fh in
      let payload = Bytes.init (1024 * 1024) (fun i -> Char.chr (i mod 251)) in
      let t0 = Engine.now eng in
      Client.write f ~off:0 payload;
      Client.close f;
      let elapsed = Engine.now eng - t0 in

      (* Read it back over the wire and verify. *)
      let back = Client.read client fh ~off:0 ~len:(Bytes.length payload) in
      assert (Bytes.equal back payload);

      let wl = Server.write_layer server in
      let disk_stats = disk.Nfsg_disk.Device.spindle_stats () in
      Printf.printf "wrote + verified 1 MB over simulated NFS in %.1f ms of virtual time\n"
        (Time.to_ms_f elapsed);
      Printf.printf "  client write speed       : %.0f KB/s\n"
        (1024.0 /. Time.to_sec_f elapsed);
      Printf.printf "  WRITE RPCs               : %d\n" (Write_layer.writes_handled wl);
      Printf.printf "  metadata updates         : %d (%.1f writes gathered per update)\n"
        (Write_layer.batches wl) (Write_layer.mean_batch_size wl);
      Printf.printf "  disk transactions        : %d (a standard server would need ~%d)\n"
        disk_stats.Nfsg_disk.Device.transactions
        (3 * Write_layer.writes_handled wl));

  Engine.run eng
