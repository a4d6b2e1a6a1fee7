open Nfsg_sim
module Client = Nfsg_nfs.Client

type result = { bytes : int; elapsed : Time.t; kb_per_sec : float; wire_writes : int }

(* Byte [p] of a file written with [seed] is [(p + seed) mod 251]. The
   tape is that sequence from phase 0 for one period plus one 8 KiB
   block, so a chunk of up to a block is one blit from the tape, and a
   longer one a blit per tape length. *)
let period = 251
let tape = Bytes.init (period + 8192) (fun i -> Char.chr (i mod period))

let chunk ~pos ~len ~seed =
  let out = Bytes.create len in
  let rec fill at =
    if at < len then begin
      let phase = (pos + at + seed) mod period in
      let n = Stdlib.min (len - at) (Bytes.length tape - phase) in
      Bytes.blit tape phase out at n;
      fill (at + n)
    end
  in
  fill 0;
  out

let pattern ~total ~seed = chunk ~pos:0 ~len:total ~seed

let mk_result eng ~t0 ~bytes ~wire_writes0 client =
  let elapsed = Engine.now eng - t0 in
  {
    bytes;
    elapsed;
    kb_per_sec =
      (if elapsed = 0 then 0.0
       else float_of_int bytes /. 1024.0 /. Time.to_sec_f elapsed);
    wire_writes = Client.wire_writes client - wire_writes0;
  }

let run eng client ~dir ~name ~total ?(app_chunk = 8192) ?(seed = 7) () =
  let fh, _ = Client.create_file client dir name in
  let f = Client.open_file client fh in
  let wire0 = Client.wire_writes client in
  let t0 = Engine.now eng in
  let pos = ref 0 in
  while !pos < total do
    let n = Stdlib.min app_chunk (total - !pos) in
    Client.write f ~off:!pos (chunk ~pos:!pos ~len:n ~seed);
    pos := !pos + n
  done;
  Client.close f;
  mk_result eng ~t0 ~bytes:total ~wire_writes0:wire0 client

let run_random eng client ~dir ~name ~writes ~file_blocks ?(seed = 7) () =
  let fh, _ = Client.create_file client dir name in
  let f = Client.open_file client fh in
  let rng = Rng.create seed in
  let wire0 = Client.wire_writes client in
  let t0 = Engine.now eng in
  for _ = 1 to writes do
    let blk = Rng.int rng file_blocks in
    Client.write f ~off:(blk * 8192) (Bytes.make 8192 (Char.chr (33 + Rng.int rng 90)))
  done;
  Client.close f;
  mk_result eng ~t0 ~bytes:(writes * 8192) ~wire_writes0:wire0 client

let verify client ~fh ~total ~seed =
  let back = Client.read client fh ~off:0 ~len:total in
  Bytes.equal back (pattern ~total ~seed)
