(* Shared end-to-end rig: one network segment, one server over a
   configurable device stack, one (or more) clients. *)

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
module Proto = Nfsg_nfs.Proto
module Rpc_client = Nfsg_rpc.Rpc_client
module Rpc = Nfsg_rpc.Rpc
module Xdr = Nfsg_rpc.Xdr

type rig = {
  eng : Engine.t;
  segment : Segment.t;
  disks : Device.t array;  (** raw spindles *)
  device : Device.t;  (** what the server mounts *)
  server : Server.t;
  rpc : Rpc_client.t;
  client : Client.t;
}

let disk_geometry = { (Disk.rz26 ~capacity:(64 * 1024 * 1024) ()) with Disk.track_bytes = 400 * 1024 }

let make ?(net = Segment.fddi) ?(accel = false) ?(spindles = 1) ?(biods = 4)
    ?(config = Server.default_config) ?trace () =
  let eng = Engine.create () in
  let segment = Segment.create eng net in
  let disks =
    Array.init spindles (fun i -> Disk.create eng ~name:(Printf.sprintf "rz26-%d" i) disk_geometry)
  in
  let base =
    if spindles = 1 then disks.(0) else Stripe.device (Stripe.create eng ~chunk:8192 disks)
  in
  let device = if accel then Nvram.create eng base else base in
  let server =
    Server.make eng ~segment ~addr:"server" ?trace config [ Volume.spec "/export" device ]
  in
  let csock = Socket.create segment ~addr:"client" () in
  let rpc = Rpc_client.create eng ~sock:csock ~server:"server" () in
  let client = Client.create eng ~rpc ~biods () in
  { eng; segment; disks; device; server; rpc; client }

(* Run [f] as a driver process and drain the simulation. *)
let run rig f =
  let result = ref None in
  Engine.spawn rig.eng ~name:"driver" (fun () -> result := Some (f ()));
  Engine.run rig.eng;
  match !result with Some v -> v | None -> Alcotest.fail "driver process blocked forever"

let root rig = Server.root_fh rig.server

(* Write [total] bytes sequentially through the client cache in
   [app_chunk]-byte application writes, then close. Returns elapsed. *)
let write_file rig file ~total ?(app_chunk = 8192) ?(seed = 7) () =
  let f = Client.open_file rig.client file in
  let t0 = Engine.now rig.eng in
  let pos = ref 0 in
  while !pos < total do
    let n = Stdlib.min app_chunk (total - !pos) in
    let data = Bytes.init n (fun i -> Char.chr ((!pos + i + seed) mod 251)) in
    Client.write f ~off:!pos data;
    pos := !pos + n
  done;
  Client.close f;
  Engine.now rig.eng - t0

let expect_pattern ~total ~seed = Bytes.init total (fun i -> Char.chr ((i + seed) mod 251))

(* [f ()] and the bytes it allocates, minor and major. Allocation
   counts are deterministic, unlike time; the minor collections bracket
   the call because [Gc.quick_stat] folds the minor heap's tally in
   only at a collection. A full major cycle first finishes the work
   earlier tests left pending, which a slice inside the window would
   otherwise count against [f]. *)
let allocated_bytes f =
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  Gc.full_major ();
  let w0 = words () in
  let r = f () in
  let w1 = words () in
  (r, (w1 -. w0) *. float_of_int (Sys.word_size / 8))

(* {1 Frames through the one encode path} *)

let call_frame ?(xid = 1) args =
  Rpc.frame_call (Proto.args_body args) ~xid ~prog:Rpc.nfs_program ~vers:Rpc.nfs_version
    ~proc:(Proto.proc_of_args args)

let reply_frame ?(xid = 1) res = Rpc.frame_reply (Proto.res_body res) ~xid Rpc.Success

(* The argument and result bodies as the decoders see them: framed,
   then unwrapped by the RPC decoder. *)
let args_view args = (Rpc.decode_call (call_frame args)).Rpc.body
let res_view res = (Rpc.decode_reply (reply_frame res)).Rpc.rbody

(* Bodies of arbitrary bytes, for RPC tests below NFS. *)
let raw_body mk b =
  let body = mk (Bytes.length b) in
  Xdr.Enc.raw (Rpc.body_enc body) b;
  body

let raw_call s = raw_body (fun size_hint -> Rpc.call_body ~size_hint ()) (Bytes.of_string s)
let raw_reply b = raw_body (fun size_hint -> Rpc.reply_body ~size_hint ()) b
