(* Whole-stack integration scenarios beyond single features. *)

open Testbed
module Server = Nfsg_core.Server
module Write_layer = Nfsg_core.Write_layer
module Fs = Nfsg_ufs.Fs
module Engine = Nfsg_sim.Engine
module Time = Nfsg_sim.Time

let test_mixed_ops_one_session () =
  (* A little "shell session": mkdir, create files, write, rename,
     read back, remove — all over the wire with gathering on. *)
  let rig = make ~biods:4 () in
  run rig (fun () ->
      let c = rig.client in
      let r = root rig in
      let proj, _ = Client.mkdir c r "project" in
      let src, _ = Client.create_file c proj "draft.txt" in
      let f = Client.open_file c src in
      Client.write f ~off:0 (Bytes.of_string "chapter one\n");
      Client.close f;
      Client.rename c ~from_dir:proj ~from_name:"draft.txt" ~to_dir:proj ~to_name:"final.txt";
      let final, a = Client.lookup c proj "final.txt" in
      Alcotest.(check int) "size survived rename" 12 a.Proto.size;
      Alcotest.(check string) "content" "chapter one\n"
        (Bytes.to_string (Client.read c final ~off:0 ~len:12));
      Client.remove c proj "final.txt";
      Client.rmdir c r "project";
      Alcotest.(check int) "root empty" 0 (List.length (Client.readdir c r)))

let test_interleaved_writers_same_file () =
  (* Two client hosts interleave writes to DIFFERENT regions of one
     file; both regions must be intact and gathering must never mix up
     replies. *)
  let rig = make ~biods:4 () in
  let sock2 = Socket.create rig.segment ~addr:"client2" () in
  let rpc2 = Rpc_client.create rig.eng ~sock:sock2 ~server:"server" () in
  let client2 = Client.create rig.eng ~rpc:rpc2 ~biods:4 () in
  let fh_box = ref None in
  let c2_done = ref false in
  Nfsg_sim.Engine.spawn rig.eng ~name:"writer2" (fun () ->
      (* Wait for client 1 to create the file. *)
      let rec wait () =
        match !fh_box with
        | Some fh -> fh
        | None ->
            Nfsg_sim.Engine.delay (Time.ms 5);
            wait ()
      in
      let fh = wait () in
      let f = Client.open_file client2 fh in
      for i = 0 to 15 do
        Client.write f ~off:((32 + i) * 8192) (Bytes.make 8192 'B')
      done;
      Client.close f;
      c2_done := true);
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "shared" in
      fh_box := Some fh;
      let f = Client.open_file rig.client fh in
      for i = 0 to 15 do
        Client.write f ~off:(i * 8192) (Bytes.make 8192 'A')
      done;
      Client.close f;
      (* Drain writer2 before verifying. *)
      while not !c2_done do
        Nfsg_sim.Engine.delay (Time.ms 10)
      done;
      let region1 = Client.read rig.client fh ~off:0 ~len:(16 * 8192) in
      let region2 = Client.read rig.client fh ~off:(32 * 8192) ~len:(16 * 8192) in
      Alcotest.(check bytes) "A region" (Bytes.make (16 * 8192) 'A') region1;
      Alcotest.(check bytes) "B region" (Bytes.make (16 * 8192) 'B') region2)

let test_many_small_files () =
  let rig = make ~biods:4 () in
  run rig (fun () ->
      let c = rig.client in
      let r = root rig in
      for i = 1 to 40 do
        let fh, _ = Client.create_file c r (Printf.sprintf "f%02d" i) in
        let f = Client.open_file c fh in
        Client.write f ~off:0 (Bytes.make (i * 100) (Char.chr (64 + (i mod 26))));
        Client.close f
      done;
      Alcotest.(check int) "40 entries" 40 (List.length (Client.readdir c r));
      (* Spot check contents and sizes. *)
      List.iter
        (fun i ->
          let fh, a = Client.lookup c r (Printf.sprintf "f%02d" i) in
          Alcotest.(check int) "size" (i * 100) a.Proto.size;
          let b = Client.read c fh ~off:0 ~len:(i * 100) in
          Alcotest.(check char) "content" (Char.chr (64 + (i mod 26))) (Bytes.get b 0))
        [ 1; 17; 40 ];
      match Fs.check (Server.fs rig.server) with
      | Ok () -> ()
      | Error es -> Alcotest.failf "fsck: %s" (String.concat "; " es))

let test_packet_loss_end_to_end () =
  (* 5% datagram loss: retransmission + dupcache must keep the file
     byte-perfect, with gathering enabled. *)
  let eng = Engine.create () in
  let segment = Segment.create eng { Segment.fddi with Segment.loss_prob = 0.05 } in
  let disk = Nfsg_disk.Disk.create eng disk_geometry in
  let server =
    Server.make eng ~segment ~addr:"server" Server.default_config [ Volume.spec "/export" disk ]
  in
  let sock = Socket.create segment ~addr:"client" () in
  let params = { Rpc_client.default_params with Rpc_client.initial_rto = Time.ms 200; min_rto = Time.ms 200 } in
  let rpc = Rpc_client.create eng ~sock ~server:"server" ~params () in
  let client = Client.create eng ~rpc ~biods:4 () in
  let checked = ref false in
  Engine.spawn eng ~name:"driver" (fun () ->
      let fh, _ = Client.create_file client (Server.root_fh server) "lossy" in
      let f = Client.open_file client fh in
      let total = 32 * 8192 in
      for i = 0 to 31 do
        Client.write f ~off:(i * 8192)
          (Bytes.init 8192 (fun j -> Char.chr (((i * 8192) + j + 7) mod 251)))
      done;
      Client.close f;
      let back = Client.read client fh ~off:0 ~len:total in
      Alcotest.(check bytes) "intact despite loss" (expect_pattern ~total ~seed:7) back;
      checked := true);
  Engine.run eng;
  Alcotest.(check bool) "completed" true !checked;
  Alcotest.(check bool) "losses actually happened" true (Segment.datagrams_lost segment > 0);
  Alcotest.(check bool) "retransmissions happened" true (Rpc_client.retransmissions rpc > 0)

let test_duplicate_drop_rescue_no_orphans () =
  (* Heavy loss on a gathering server: duplicates get dropped while
     batches are queued. Every write must still be answered (close()
     returns) and no handles may leak. *)
  let eng = Engine.create () in
  let segment = Segment.create eng { Segment.fddi with Segment.loss_prob = 0.15 } in
  let disk = Nfsg_disk.Disk.create eng disk_geometry in
  let server =
    Server.make eng ~segment ~addr:"server" Server.default_config [ Volume.spec "/export" disk ]
  in
  let sock = Socket.create segment ~addr:"client" () in
  let params =
    { Rpc_client.default_params with Rpc_client.initial_rto = Time.ms 150; min_rto = Time.ms 150; max_attempts = 60 }
  in
  let rpc = Rpc_client.create eng ~sock ~server:"server" ~params () in
  let client = Client.create eng ~rpc ~biods:8 () in
  let finished = ref false in
  Engine.spawn eng ~name:"driver" (fun () ->
      let fh, _ = Client.create_file client (Server.root_fh server) "dups" in
      let f = Client.open_file client fh in
      for i = 0 to 63 do
        Client.write f ~off:(i * 8192) (Bytes.make 8192 (Char.chr (33 + (i mod 90))))
      done;
      Client.close f;
      finished := true);
  Engine.run eng;
  Alcotest.(check bool) "close returned (no orphaned writes)" true !finished;
  match Fs.check (Server.fs server) with
  | Ok () -> ()
  | Error es -> Alcotest.failf "fsck: %s" (String.concat "; " es)

let test_socket_overflow_recovers () =
  (* Tiny server socket buffer: requests get dropped, clients
     retransmit, and the transfer still completes correctly. *)
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let disk = Nfsg_disk.Disk.create eng disk_geometry in
  let config =
    {
      Server.default_config with
      Server.rcvbuf = 3 * 8192;
      (* standard mode keeps every nfsd busy in synchronous disk I/O,
         so the burst really does pile up in the socket buffer *)
      write_layer = Write_layer.standard;
    }
  in
  let server = Server.make eng ~segment ~addr:"server" config [ Volume.spec "/export" disk ] in
  let sock = Socket.create segment ~addr:"client" () in
  let params = { Rpc_client.default_params with Rpc_client.initial_rto = Time.ms 300; min_rto = Time.ms 300 } in
  let rpc = Rpc_client.create eng ~sock ~server:"server" ~params () in
  let client = Client.create eng ~rpc ~biods:15 () in
  let ok = ref false in
  Engine.spawn eng ~name:"driver" (fun () ->
      let fh, _ = Client.create_file client (Server.root_fh server) "burst" in
      let f = Client.open_file client fh in
      let total = 32 * 8192 in
      for i = 0 to 31 do
        Client.write f ~off:(i * 8192)
          (Bytes.init 8192 (fun j -> Char.chr (((i * 8192) + j + 7) mod 251)))
      done;
      Client.close f;
      let back = Client.read client fh ~off:0 ~len:total in
      ok := Bytes.equal back (expect_pattern ~total ~seed:7));
  Engine.run eng;
  Alcotest.(check bool) "transfer correct" true !ok;
  Alcotest.(check bool) "server actually dropped requests" true
    (Socket.dropped (Server.socket server) > 0)

let test_gathering_plus_nvram_plus_stripe () =
  (* The full stack at once: gathering server over Prestoserve over a
     3-way stripe, write, verify, crash, recover, verify again. *)
  let rig = make ~accel:true ~spindles:3 ~biods:8 () in
  run rig (fun () ->
      let total = 64 * 8192 in
      let _ = write_file rig (fst (Client.create_file rig.client (root rig) "deep")) ~total () in
      let fh, _ = Client.lookup rig.client (root rig) "deep" in
      let back = Client.read rig.client fh ~off:0 ~len:total in
      Alcotest.(check bytes) "live read" (expect_pattern ~total ~seed:7) back;
      Server.crash rig.server;
      rig.device.Device.recover ();
      let fs2 = Fs.mount rig.eng rig.device in
      let f2 = Fs.lookup fs2 (Fs.root fs2) "deep" in
      Alcotest.(check bytes) "post-crash read" (expect_pattern ~total ~seed:7)
        (Fs.read fs2 f2 ~off:0 ~len:total))

let suite =
  [
    Alcotest.test_case "mixed-op session" `Quick test_mixed_ops_one_session;
    Alcotest.test_case "two writers, one file" `Quick test_interleaved_writers_same_file;
    Alcotest.test_case "many small files" `Quick test_many_small_files;
    Alcotest.test_case "packet loss end to end" `Quick test_packet_loss_end_to_end;
    Alcotest.test_case "duplicate drops never orphan" `Quick test_duplicate_drop_rescue_no_orphans;
    Alcotest.test_case "socket overflow recovers" `Quick test_socket_overflow_recovers;
    Alcotest.test_case "gathering + NVRAM + stripe + crash" `Quick test_gathering_plus_nvram_plus_stripe;
  ]
