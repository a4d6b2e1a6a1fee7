open Nfsg_sim
module Fs = Nfsg_ufs.Fs
module Vfs = Nfsg_ufs.Vfs
module Layout = Nfsg_ufs.Layout
module Proto = Nfsg_nfs.Proto
module Rpc = Nfsg_rpc.Rpc
module Svc = Nfsg_rpc.Svc
module Dupcache = Nfsg_rpc.Dupcache

type config = {
  nfsds : int;
  write_layer : Write_layer.config;
  costs : Cpu_model.t;
  dupcache : bool;
  rcvbuf : int;
  long_op_threshold : Time.t option;
}

let default_config =
  {
    nfsds = 8;
    write_layer = Write_layer.default_gathering;
    costs = Cpu_model.default;
    dupcache = true;
    rcvbuf = 256 * 1024;
    long_op_threshold = None;
  }

type t = {
  eng : Engine.t;
  segment : Nfsg_net.Segment.t;
  config : config;
  addr : string;
  volumes : Volume.t list;  (** export table, fsid order *)
  sock : Nfsg_net.Socket.t;
  cpu : Resource.t;
  verf : int;
      (** NFSv3 write verifier, the boot count of this lineage. One
          count covers every volume: it identifies the server boot,
          not a disk. *)
  dupcache : Dupcache.t option;
      (** held here so a crash can free it: replies are kernel memory *)
  op_counts : (int, int) Hashtbl.t;
  (* Read-ahead streams are per (client, file): the same boot file read
     concurrently by the whole fleet must not look like one thrashing
     stream. Client addresses map to small dense ids in arrival
     order — deterministic under the engine. *)
  stream_ids : (string, int) Hashtbl.t;
  trace : Nfsg_stats.Trace.t option;
  metrics : Nfsg_stats.Metrics.t;
  journeys : Nfsg_stats.Journey.plane;
}

let volumes t = t.volumes
let first_volume t = List.hd t.volumes
let exports t = List.map (fun v -> (Volume.export v, Volume.root_fh v)) t.volumes
let root_fh t = Volume.root_fh (first_volume t)
let fs t = Volume.fs (first_volume t)
let cpu t = t.cpu
let write_layer t = Volume.write_layer (first_volume t)
let socket t = t.sock
let write_verifier t = t.verf
let dupcache t = t.dupcache
let op_count t proc = Option.value ~default:0 (Hashtbl.find_opt t.op_counts proc)
let metrics t = t.metrics
let journeys t = t.journeys

(* Stamp this transport's journey (if the svc attached one) at the
   engine's current instant. *)
let jstamp t tr stamp =
  match Svc.journey_of tr with Some j -> stamp j ~now:(Engine.now t.eng) | None -> ()

let count_op t proc =
  Hashtbl.replace t.op_counts proc (1 + op_count t proc);
  Nfsg_stats.Metrics.incr
    (Nfsg_stats.Metrics.counter t.metrics ~ns:Nfsg_stats.Names.Ns.server
       (Nfsg_stats.Names.ops (Proto.proc_name proc)))

(* Per-volume op accounting, once dispatch has routed the request. A
   one-volume server's volume namespace IS "server", so only the
   vol<k> namespaces add a second counter. *)
let count_vol_op t vol proc =
  let ns = Volume.server_ns vol in
  if ns <> Nfsg_stats.Names.Ns.server then
    Nfsg_stats.Metrics.incr
      (Nfsg_stats.Metrics.counter t.metrics ~ns (Nfsg_stats.Names.ops (Proto.proc_name proc)))

let count_rofs_rejection t vol =
  let ns = Volume.server_ns vol in
  Nfsg_stats.Metrics.incr (Nfsg_stats.Metrics.counter t.metrics ~ns Nfsg_stats.Names.rofs_rejections)

(* Stream id for the read-ahead engine: client identity in the high
   bits, inode number in the low bits. *)
let stream_of t ~client ~inum =
  let cid =
    match Hashtbl.find_opt t.stream_ids client with
    | Some id -> id
    | None ->
        let id = Hashtbl.length t.stream_ids in
        Hashtbl.replace t.stream_ids client id;
        id
  in
  (cid lsl 24) lor (inum land 0xFFFFFF)

(* {1 Dispatch} *)

(* Routing: fsid picks the volume; a dead volume generation (volume
   reformatted or replaced since the handle was minted) or an unknown
   fsid is the same staleness a freed inode slot has — the handle
   names nothing this server still exports. *)
let volume_of_fh t (fh : Proto.fh) =
  match List.find_opt (fun v -> Volume.fsid v = fh.Proto.fsid) t.volumes with
  | Some v when Volume.vgen v = fh.Proto.vgen -> v
  | Some _ | None -> raise (Fs.Stale fh.Proto.inum)

let vnode_in vol (fh : Proto.fh) =
  let fs = Volume.fs vol in
  Vfs.vnode_of_inode fs (Fs.iget fs ~inum:fh.Proto.inum ~gen:fh.Proto.gen)

let fh_of_vnode vol v =
  {
    Proto.fsid = Volume.fsid vol;
    vgen = Volume.vgen vol;
    inum = Vfs.vnode_id v;
    gen = Fs.generation (Vfs.inode_of v);
  }

let fattr vol v = Write_layer.fattr (Volume.write_layer vol) v

(* Map filesystem exceptions onto NFS statuses. *)
let status_of_exn = function
  | Fs.Stale _ -> Some Proto.NFSERR_STALE
  | Not_found -> Some Proto.NFSERR_NOENT
  | Fs.Exists _ -> Some Proto.NFSERR_EXIST
  | Fs.Not_dir _ -> Some Proto.NFSERR_NOTDIR
  | Fs.Is_dir _ -> Some Proto.NFSERR_ISDIR
  | Fs.Not_empty _ -> Some Proto.NFSERR_NOTEMPTY
  | Fs.Not_symlink _ -> Some Proto.NFSERR_IO
  | Nfsg_disk.Device.Io_error _ -> Some Proto.NFSERR_IO
  | Fs.No_space -> Some Proto.NFSERR_NOSPC
  | _ -> None

(* The filehandle dispatch routes on; [None] only for NULL. *)
let primary_fh : Proto.args -> Proto.fh option = function
  | Proto.Null -> None
  | Proto.Getattr fh | Proto.Statfs fh | Proto.Readlink fh -> Some fh
  | Proto.Setattr (fh, _) | Proto.Lookup (fh, _) -> Some fh
  | Proto.Read { fh; _ }
  | Proto.Write { fh; _ }
  | Proto.Write3 { fh; _ }
  | Proto.Commit { fh; _ }
  | Proto.Readdir { fh; _ } -> Some fh
  | Proto.Create { dir; _ }
  | Proto.Remove { dir; _ }
  | Proto.Mkdir { dir; _ }
  | Proto.Rmdir { dir; _ }
  | Proto.Symlink { dir; _ } -> Some dir
  | Proto.Rename { from_dir; _ } -> Some from_dir

(* Procedures a read-only export bounces with NFSERR_ROFS before any
   of them can touch the write layer — both dialects, including the v3
   WRITE/COMMIT pair. *)
let mutates proc =
  proc = Proto.proc_setattr || proc = Proto.proc_write || proc = Proto.proc_write3
  || proc = Proto.proc_commit || proc = Proto.proc_create || proc = Proto.proc_remove
  || proc = Proto.proc_rename || proc = Proto.proc_mkdir || proc = Proto.proc_rmdir
  || proc = Proto.proc_symlink

(* The synchronous procedures, on the vnode [v] their primary handle
   resolved to. *)
let execute vol v (args : Proto.args) : Proto.res =
  let attr_res v = Proto.RAttr (Ok (fattr vol v)) in
  let dirop_res v = Proto.RDirop (Ok (fh_of_vnode vol v, fattr vol v)) in
  match args with
  | Proto.Getattr _ -> attr_res v
  | Proto.Setattr (_, sattr) ->
      Vfs.with_lock v (fun () ->
          if sattr.Proto.s_size >= 0 then begin
            (* nfsrace: allow Y001 baseline synchronous semantics: truncate commits under the vnode lock before the reply *)
            Vfs.vop_truncate v sattr.Proto.s_size;
            (* Truncation changes visible state: commit before reply. *)
            (* nfsrace: allow Y001 baseline synchronous semantics: truncate commits under the vnode lock before the reply *)
            Nfsg_ufs.Fs.fsync_metadata (Volume.fs vol) (Vfs.inode_of v)
          end;
          match sattr.Proto.s_mtime with
          | Some tv -> Vfs.vop_touch v ~mtime:(Proto.ns_of_timeval tv)
          | None -> ());
      attr_res v
  | Proto.Lookup (_, name) -> dirop_res (Vfs.vop_lookup v name)
  | Proto.Null | Proto.Read _ | Proto.Write _ | Proto.Write3 _ | Proto.Commit _ ->
      assert false (* answered by dispatch, the write layer or the read plane *)
  | Proto.Create { name; _ } ->
      (* nfsrace: allow Y001 baseline synchronous metadata semantics: directory ops commit under the vnode lock before replying *)
      dirop_res (Vfs.with_lock v (fun () -> Vfs.vop_create v name Layout.Regular))
  | Proto.Remove { name; _ } ->
      (* nfsrace: allow Y001 baseline synchronous metadata semantics: directory ops commit under the vnode lock before replying *)
      Vfs.with_lock v (fun () -> Vfs.vop_remove v name);
      Proto.RStatus Proto.NFS_OK
  | Proto.Rename { from_dir; from_name; to_dir; to_name } ->
      (* Rename never crosses volumes: distinct fsids are distinct
         filesystems, exactly the classic EXDEV. *)
      if to_dir.Proto.fsid <> from_dir.Proto.fsid || to_dir.Proto.vgen <> from_dir.Proto.vgen
      then Proto.RStatus Proto.NFSERR_XDEV
      else begin
        let dst = vnode_in vol to_dir in
        (* nfsrace: allow Y001 baseline synchronous metadata semantics: directory ops commit under the vnode lock before replying *)
        Vfs.with_lock v (fun () -> Vfs.vop_rename v ~src:from_name ~dst_dir:dst ~dst:to_name);
        Proto.RStatus Proto.NFS_OK
      end
  | Proto.Mkdir { name; _ } ->
      (* nfsrace: allow Y001 baseline synchronous metadata semantics: directory ops commit under the vnode lock before replying *)
      dirop_res (Vfs.with_lock v (fun () -> Vfs.vop_mkdir v name))
  | Proto.Rmdir { name; _ } ->
      (* nfsrace: allow Y001 baseline synchronous metadata semantics: directory ops commit under the vnode lock before replying *)
      Vfs.with_lock v (fun () -> Vfs.vop_rmdir v name);
      Proto.RStatus Proto.NFS_OK
  | Proto.Readlink _ -> Proto.RReadlink (Ok (Vfs.vop_readlink v))
  | Proto.Symlink { name; target; _ } ->
      (* nfsrace: allow Y001 baseline synchronous metadata semantics: directory ops commit under the vnode lock before replying *)
      dirop_res (Vfs.with_lock v (fun () -> Vfs.vop_symlink v name ~target))
  | Proto.Readdir _ -> Proto.RReaddir (Ok (Vfs.vop_readdir v, true))
  | Proto.Statfs _ ->
      let s = Fs.statfs (Volume.fs vol) in
      Proto.RStatfs
        (Ok
           {
             Proto.tsize = 8192;
             bsize = s.Fs.bsize;
             blocks = s.Fs.total_blocks;
             bfree = s.Fs.free_blocks;
             bavail = s.Fs.free_blocks;
           })

(* Error result with the shape the procedure's decoder expects. *)
let error_res ~proc st : Proto.res =
  if proc = Proto.proc_getattr || proc = Proto.proc_setattr || proc = Proto.proc_write then
    Proto.RAttr (Error st)
  else if proc = Proto.proc_lookup || proc = Proto.proc_create || proc = Proto.proc_mkdir
          || proc = Proto.proc_symlink then Proto.RDirop (Error st)
  else if proc = Proto.proc_read then Proto.RRead (Error st)
  else if proc = Proto.proc_readlink then Proto.RReadlink (Error st)
  else if proc = Proto.proc_write3 then Proto.RWrite3 (Error st)
  else if proc = Proto.proc_commit then Proto.RCommit (Error st)
  else if proc = Proto.proc_readdir then Proto.RReaddir (Error st)
  else if proc = Proto.proc_statfs then Proto.RStatfs (Error st)
  else Proto.RStatus st

let empty_reply stat = Svc.Reply (stat, Rpc.reply_body ~size_hint:0 ())
let encode t = Resource.use t.cpu t.config.costs.Cpu_model.rpc_encode
let reply res = Svc.Reply (Rpc.Success, Proto.res_body res)

(* A filesystem error, answered in the procedure's result shape and
   charged like any other reply; anything else is a server fault. *)
let fail t ~proc e =
  match status_of_exn e with
  | Some st ->
      encode t;
      reply (error_res ~proc st)
  | None -> raise e

(* The one filehandle path: the handle names a volume and a vnode on
   it, or the request is answered with the resolution error. A
   read-only export then bounces a mutating procedure; every other
   request goes on to [k]. *)
let resolve t ~proc fh k =
  count_op t proc;
  match
    let vol = volume_of_fh t fh in
    (vol, vnode_in vol fh)
  with
  | exception e -> fail t ~proc e
  | vol, v ->
      count_vol_op t vol proc;
      if mutates proc && Volume.read_only vol then begin
        count_rofs_rejection t vol;
        encode t;
        reply (error_res ~proc Proto.NFSERR_ROFS)
      end
      else k vol v

(* The mini MOUNT service: export name in, root filehandle out. *)
let dispatch_mount t (call : Rpc.call) =
  if call.Rpc.proc <> Proto.proc_mnt then empty_reply Rpc.Proc_unavail
  else
    match Proto.decode_mnt_args call.Rpc.body with
    | exception (Nfsg_rpc.Xdr.Dec.Error _ | Nfsg_rpc.Xdr.Decode_error _) -> empty_reply Rpc.Garbage_args
    | name ->
        let res =
          match List.find_opt (fun v -> Volume.export v = name) t.volumes with
          | Some vol -> Ok (Volume.root_fh vol, Volume.read_only vol)
          | None -> Error Proto.NFSERR_NOENT
        in
        encode t;
        Svc.Reply (Rpc.Success, Proto.mnt_res_body res)

(* One procedure on its resolved volume and vnode. WRITEs that gather
   go to the volume's write layer, which replies itself; the rest reply
   here. READ, COMMIT and the unstable WRITE3 take their attributes
   after the encode charge, as of the reply. *)
let serve t tr ~proc vol v (args : Proto.args) =
  let costs = t.config.costs in
  match args with
  | Proto.Write { offset; data; _ } ->
      Write_layer.handle_write (Volume.write_layer vol) tr v ~off:offset ~data
  | Proto.Write3 { offset; data; stable = Proto.Data_sync | Proto.File_sync; _ } ->
      (* v2 semantics through the write layer: these writes gather in
         the same batches as v2 WRITEs. *)
      let respond a = Proto.RWrite3 (Ok (a, Proto.File_sync, t.verf)) in
      let fail st = Proto.RWrite3 (Error st) in
      Write_layer.handle_write (Volume.write_layer vol) tr ~respond ~fail v ~off:offset ~data
  | Proto.Write3 { offset; data; stable = Proto.Unstable; _ } -> (
      (* The v3 asynchronous promise: data to the cache, reply
         immediately; durability comes at COMMIT. *)
      match
        Vfs.with_lock v (fun () ->
            Resource.use t.cpu costs.Cpu_model.ufs_trip;
            (* nfsrace: allow Y001 delayed write: a cache-miss fill may park, and the fill must happen under the vnode lock *)
            Vfs.vop_write v ~off:offset data ~flags:[ Vfs.IO_DELAYDATA ])
      with
      | () ->
          (* The unstable write's journey ends at the cache: no gather
             wait, no disk — COMMIT pays those. *)
          jstamp t tr Nfsg_stats.Journey.stamp_queued;
          encode t;
          reply (Proto.RWrite3 (Ok (fattr vol v, Proto.Unstable, t.verf)))
      | exception e -> fail t ~proc e)
  | Proto.Commit { offset; count; _ } -> (
      jstamp t tr Nfsg_stats.Journey.stamp_queued;
      match
        Vfs.with_lock v (fun () ->
            Resource.use t.cpu costs.Cpu_model.ufs_trip;
            let len = if count = 0 then (Vfs.vop_getattr v).Fs.size - offset else count in
            jstamp t tr Nfsg_stats.Journey.stamp_disk_submit;
            (* nfsrace: allow Y001 COMMIT is the durability point: the client pays the disk wait, and the vnode lock orders it against writers *)
            if len > 0 then Vfs.vop_syncdata v ~off:offset ~len;
            Resource.use t.cpu costs.Cpu_model.ufs_trip;
            (* nfsrace: allow Y001 COMMIT is the durability point: the client pays the disk wait, and the vnode lock orders it against writers *)
            Vfs.vop_fsync v ~flags:[ Vfs.FWRITE; Vfs.FWRITE_METADATA ])
      with
      | () ->
          jstamp t tr Nfsg_stats.Journey.stamp_disk_complete;
          encode t;
          reply (Proto.RCommit (Ok (fattr vol v, t.verf)))
      | exception e ->
          (* The unstable data stays dirty in the cache; the client
             keeps it and re-COMMITs. *)
          fail t ~proc e)
  | Proto.Read { fh; offset; count } -> (
      let cache = Fs.cache (Volume.fs vol) in
      let misses0 = Nfsg_ufs.Buffer_cache.misses cache in
      jstamp t tr Nfsg_stats.Journey.stamp_queued;
      jstamp t tr Nfsg_stats.Journey.stamp_disk_submit;
      let stream =
        if Nfsg_ufs.Buffer_cache.readahead_active cache then
          stream_of t ~client:(Svc.client_of tr) ~inum:fh.Proto.inum
        else 0
      in
      let body, head = Proto.read_reply () in
      match Vfs.vop_read_ahead v ~stream ~off:offset ~len:count (Rpc.body_enc body) with
      | () ->
          jstamp t tr Nfsg_stats.Journey.stamp_disk_complete;
          (* Hit iff no demand read waited: the cache's miss counter
             did not move while we were in the vop. *)
          (match Svc.journey_of tr with
          | Some j ->
              Nfsg_stats.Journey.set_cache_phase j
                ~hit:(Nfsg_ufs.Buffer_cache.misses cache = misses0)
          | None -> ());
          encode t;
          (* The data is already in the frame. *)
          Proto.fill_read_ok head (fattr vol v);
          Svc.Reply (Rpc.Success, body)
      | exception e -> fail t ~proc e)
  | args -> (
      match execute vol v args with
      | res ->
          encode t;
          reply res
      | exception e -> fail t ~proc e)

let make_dispatch t tr (call : Rpc.call) =
  if call.Rpc.prog = Rpc.mount_program then dispatch_mount t call
  else if call.Rpc.prog <> Rpc.nfs_program then empty_reply Rpc.Prog_unavail
  else begin
    Resource.use t.cpu (t.config.costs.Cpu_model.rpc_decode + t.config.costs.Cpu_model.op_base);
    let proc = call.Rpc.proc in
    match Proto.decode_args ~proc call.Rpc.body with
    | exception (Nfsg_rpc.Xdr.Dec.Error _ | Nfsg_rpc.Xdr.Decode_error _) -> empty_reply Rpc.Garbage_args
    | args -> (
        (match Svc.journey_of tr with
        | Some j ->
            let payload =
              match args with
              | Proto.Write { data; _ } | Proto.Write3 { data; _ } -> Nfsg_rpc.Xdr.view_length data
              | Proto.Read { count; _ } -> count
              | _ -> 0
            in
            Nfsg_stats.Journey.set_op j ~proc:(Proto.proc_name proc) ~bytes:payload
        | None -> ());
        match primary_fh args with
        | None ->
            count_op t proc;
            encode t;
            reply Proto.RNull
        | Some fh -> resolve t ~proc fh (fun vol v -> serve t tr ~proc vol v args))
  end

(* Metrics namespaces of volume [fsid] in a table of [n]. A server of
   one volume is that volume: its planes are the server's own. In a
   table of several, each volume's planes carry its fsid, so gather
   batches and op mixes of two exports never share a counter. *)
let namespaces ~n fsid =
  let open Nfsg_stats.Names.Ns in
  if n = 1 then (server, write_layer, read_plane)
  else (server_vol fsid, write_layer_vol fsid, read_plane_vol fsid)

(* The assembly shared by the fresh-format and recovery paths. [vols]
   carries, per export, its spec and the vgen to preserve ([None]
   formats the volume afresh); [verf] is the boot count. *)
let boot eng ~segment ~addr ?trace ?metrics ~verf config vols =
  let metrics = match metrics with Some m -> m | None -> Nfsg_stats.Metrics.create () in
  let cpu = Resource.create eng "server-cpu" in
  let costs = config.costs in
  let sock =
    Nfsg_net.Socket.create segment ~addr ~rcvbuf:config.rcvbuf
      ~on_rx_fragment:(fun ~bytes:_ -> Resource.charge cpu costs.Cpu_model.rx_fragment)
      ()
  in
  let svc_ref = ref None in
  let send_reply tr res =
    match !svc_ref with
    | Some svc -> Svc.send_reply svc tr Rpc.Success (Proto.res_body res)
    | None -> assert false
  in
  let n = List.length vols in
  let volumes =
    List.mapi
      (fun i (spec, vgen) ->
        Volume.mount eng ~fsid:(i + 1) ?vgen ~ns:(namespaces ~n (i + 1)) ~sock ~cpu ~costs
          ~send_reply ?trace ~metrics ~wl_config:config.write_layer spec)
      vols
  in
  let journeys =
    Nfsg_stats.Journey.create eng ~metrics ?threshold:config.long_op_threshold
      ?event_trace:trace ()
  in
  let dupcache = if config.dupcache then Some (Dupcache.create eng ~metrics ()) else None in
  let t =
    {
      eng;
      segment;
      config;
      addr;
      volumes;
      sock;
      cpu;
      verf;
      dupcache;
      op_counts = Hashtbl.create 16;
      stream_ids = Hashtbl.create 16;
      trace;
      metrics;
      journeys;
    }
  in
  let svc =
    Svc.create eng ~sock ?dupcache ~journeys ~metrics
      ~on_duplicate_drop:(fun ~client:_ call ->
        if call.Rpc.prog = Rpc.nfs_program && call.Rpc.proc = Proto.proc_write then
          match Proto.decode_args ~proc:call.Rpc.proc call.Rpc.body with
          | Proto.Write { fh; _ } -> (
              (* Route the orphan rescue to the right volume's plane. *)
              match List.find_opt (fun v -> Volume.owns v fh) t.volumes with
              | Some vol -> Write_layer.rescue (Volume.write_layer vol) ~inum:fh.Proto.inum
              | None -> ())
          | _ | (exception (Nfsg_rpc.Xdr.Dec.Error _ | Nfsg_rpc.Xdr.Decode_error _)) -> ())
      ~nfsds:config.nfsds
      ~dispatch:(fun tr call -> make_dispatch t tr call)
      ()
  in
  svc_ref := Some svc;
  t

let make eng ~segment ~addr ?trace ?metrics config specs =
  if specs = [] then invalid_arg "Server.make: need at least one volume";
  boot eng ~segment ~addr ?trace ?metrics ~verf:1 config (List.map (fun s -> (s, None)) specs)

let crash t =
  (* Power off: volatile state gone and the host leaves the wire. The
     reply cache is volatile too; emptying it also frees its replies,
     which every incarnation a caller keeps would otherwise hold. *)
  Nfsg_net.Socket.detach t.sock;
  Option.iter Dupcache.clear t.dupcache;
  List.iter Volume.crash t.volumes

let restart t =
  (* Every device recovers (NVRAM replay where fitted), every volume
     remounts fsck-style from stable storage; the volume generations
     are preserved — a reboot does not invalidate client handles — and
     the shared write verifier bumps exactly once for the incarnation. *)
  List.iter (fun v -> (Volume.device v).Nfsg_disk.Device.recover ()) t.volumes;
  (* Same registry across incarnations: find-or-create registration
     means the restarted server keeps counting where this one stopped. *)
  boot t.eng ~segment:t.segment ~addr:t.addr ?trace:t.trace ~metrics:t.metrics
    ~verf:(t.verf + 1) t.config
    (List.map (fun v -> (Volume.spec_of v, Some (Volume.vgen v))) t.volumes)
