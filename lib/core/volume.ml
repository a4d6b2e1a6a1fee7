module Fs = Nfsg_ufs.Fs
module Proto = Nfsg_nfs.Proto

type spec = {
  export : string;
  device : Nfsg_disk.Device.t;
  cache_blocks : int option;
  read_only : bool;
  readahead : Nfsg_ufs.Buffer_cache.readahead option;
}

let spec ?cache_blocks ?(read_only = false) ?readahead export device =
  { export; device; cache_blocks; read_only; readahead }

type t = {
  spec : spec;
  fsid : int;
  vgen : int;
  fs : Fs.t;
  wl : Write_layer.t;
  server_ns : string;
  mutable read_only : bool;
}

(* Volume generations: a fresh one per format, preserved across
   crash/recover of the same filesystem. A handle minted before a
   volume was reformatted (or replaced) therefore carries a dead vgen
   and earns NFSERR_STALE, while handles held across a mere reboot
   keep working. Process-global so no two formats ever share one. *)
(* nfslint: allow S001 vgen uniqueness is process-wide by design: resetting it would let a reformatted volume reuse a live generation and defeat NFSERR_STALE detection *)
let generation_counter = ref 0

let mount eng ~fsid ?vgen ~ns:(server_ns, write_layer_ns, read_plane_ns) ~sock ~cpu ~costs
    ~send_reply ?trace ~metrics ~wl_config spec =
  (* A fresh generation is a fresh format; a preserved one remounts. *)
  let vgen =
    match vgen with
    | Some g -> g
    | None ->
        incr generation_counter;
        Fs.mkfs spec.device ();
        !generation_counter
  in
  let fs =
    Fs.mount eng ?cache_blocks:spec.cache_blocks ~metrics ~ns:read_plane_ns
      ?readahead:spec.readahead spec.device
  in
  let wl =
    Write_layer.create eng ~fs ~sock ~cpu ~costs ~send_reply ?trace ~metrics ~ns:write_layer_ns
      ~fsid wl_config
  in
  { spec; fsid; vgen; fs; wl; server_ns; read_only = spec.read_only }

let export t = t.spec.export
let fsid t = t.fsid
let vgen t = t.vgen
let device t = t.spec.device
let fs t = t.fs
let write_layer t = t.wl
let server_ns t = t.server_ns
let read_only t = t.read_only
let set_read_only t ro = t.read_only <- ro

(* Spec as remounted at recovery: the runtime toggle is part of the
   identity a reboot must preserve. *)
let spec_of t = { t.spec with read_only = t.read_only }

let root_fh t =
  let root = Fs.root t.fs in
  { Proto.fsid = t.fsid; vgen = t.vgen; inum = Fs.inum root; gen = Fs.generation root }

let owns t (fh : Proto.fh) = fh.Proto.fsid = t.fsid && fh.Proto.vgen = t.vgen

let crash t = Fs.crash t.fs
