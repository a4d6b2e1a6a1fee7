open Nfsg_nfs
module Xdr = Nfsg_rpc.Xdr

let fh inum gen = { Proto.fsid = 1; vgen = 1; inum; gen }

let roundtrip_args args =
  let proc = Proto.proc_of_args args in
  Proto.decode_args ~proc (Testbed.args_view args)

(* WRITE data is a view after decoding, so structural equality on the
   args would compare backing buffers; re-encoding instead compares
   the wire form, which is what a roundtrip means. *)
let args_eq a b = Xdr.view_equal (Testbed.args_view a) (Testbed.args_view b)

let sample_args =
  [
    Proto.Null;
    Proto.Getattr (fh 3 1);
    Proto.Setattr (fh 4 2, Proto.sattr_truncate 0);
    Proto.Lookup (fh 1 1, "etc");
    Proto.Read { fh = fh 9 1; offset = 16384; count = 8192 };
    Proto.Write { fh = fh 9 1; offset = 8192; data = Xdr.view_of_bytes (Bytes.make 100 'w') };
    Proto.Create { dir = fh 1 1; name = "new.txt"; sattr = Proto.sattr_none };
    Proto.Remove { dir = fh 1 1; name = "old" };
    Proto.Rename { from_dir = fh 1 1; from_name = "a"; to_dir = fh 2 1; to_name = "b" };
    Proto.Mkdir { dir = fh 1 1; name = "subdir"; sattr = Proto.sattr_none };
    Proto.Rmdir { dir = fh 1 1; name = "subdir" };
    Proto.Readdir { fh = fh 1 1; cookie = 0; count = 4096 };
    Proto.Statfs (fh 1 1);
    Proto.Readlink (fh 5 1);
    Proto.Symlink { dir = fh 1 1; name = "ln"; target = "/export/x"; sattr = Proto.sattr_none };
    Proto.Write3
      {
        fh = fh 9 1;
        offset = 1 lsl 33;
        stable = Proto.Unstable;
        data = Xdr.view_of_bytes (Bytes.make 60 'u');
      };
    Proto.Commit { fh = fh 9 1; offset = 0; count = 65536 };
  ]

let test_args_roundtrip () =
  List.iter
    (fun args -> Alcotest.(check bool) "roundtrip" true (args_eq (roundtrip_args args) args))
    sample_args

let sample_fattr =
  {
    Proto.ftype = Proto.NFREG;
    mode = 0o644;
    nlink = 1;
    uid = 0;
    gid = 0;
    size = 123456;
    blocksize = 8192;
    rdev = 0;
    blocks = 16;
    fsid = 1;
    fileid = 42;
    atime = { Proto.sec = 10; usec = 500 };
    mtime = { Proto.sec = 11; usec = 600 };
    ctime = { Proto.sec = 12; usec = 700 };
  }

let roundtrip_res ~proc res = Proto.decode_res ~proc (Testbed.res_view res)

let sample_res =
  [
    (Proto.proc_null, Proto.RNull);
    (Proto.proc_getattr, Proto.RAttr (Ok sample_fattr));
    (Proto.proc_write, Proto.RAttr (Error Proto.NFSERR_NOSPC));
    (Proto.proc_lookup, Proto.RDirop (Ok (fh 7 3, sample_fattr)));
    (Proto.proc_create, Proto.RDirop (Error Proto.NFSERR_EXIST));
    (Proto.proc_read, Proto.RRead (Ok (sample_fattr, Bytes.of_string "file contents")));
    (Proto.proc_remove, Proto.RStatus Proto.NFS_OK);
    (Proto.proc_rename, Proto.RStatus Proto.NFSERR_STALE);
    (Proto.proc_readdir, Proto.RReaddir (Ok ([ ("a", 2); ("bb", 3) ], true)));
    ( Proto.proc_statfs,
      Proto.RStatfs (Ok { Proto.tsize = 8192; bsize = 8192; blocks = 100; bfree = 50; bavail = 50 }) );
    (Proto.proc_readlink, Proto.RReadlink (Ok "/export/x"));
    (Proto.proc_write3, Proto.RWrite3 (Ok (sample_fattr, Proto.File_sync, 7)));
    (Proto.proc_commit, Proto.RCommit (Ok (sample_fattr, 7)));
  ]

let test_res_roundtrip () =
  List.iter
    (fun (proc, res) -> Alcotest.(check bool) (Proto.proc_name proc) true (roundtrip_res ~proc res = res))
    sample_res

let test_status_codes_stable () =
  (* Wire numbers straight from RFC 1094. *)
  Alcotest.(check int) "NFS_OK" 0 (Proto.status_to_int Proto.NFS_OK);
  Alcotest.(check int) "NOENT" 2 (Proto.status_to_int Proto.NFSERR_NOENT);
  Alcotest.(check int) "NOSPC" 28 (Proto.status_to_int Proto.NFSERR_NOSPC);
  Alcotest.(check int) "STALE" 70 (Proto.status_to_int Proto.NFSERR_STALE);
  List.iter
    (fun st -> Alcotest.(check bool) "involutive" true (Proto.status_of_int (Proto.status_to_int st) = st))
    [
      Proto.NFS_OK;
      Proto.NFSERR_PERM;
      Proto.NFSERR_NOENT;
      Proto.NFSERR_IO;
      Proto.NFSERR_EXIST;
      Proto.NFSERR_NOTDIR;
      Proto.NFSERR_ISDIR;
      Proto.NFSERR_FBIG;
      Proto.NFSERR_NOSPC;
      Proto.NFSERR_NOTEMPTY;
      Proto.NFSERR_STALE;
      Proto.NFSERR_XDEV;
    ]

let test_timeval_conversion () =
  let ns = 1_234_567_891_234 in
  let tv = Proto.timeval_of_ns ns in
  Alcotest.(check int) "sec" 1234 tv.Proto.sec;
  Alcotest.(check int) "usec" 567891 tv.Proto.usec;
  (* ns -> timeval truncates below microseconds. *)
  Alcotest.(check int) "roundtrip at us precision" 1_234_567_891_000 (Proto.ns_of_timeval tv)

let test_peek_write () =
  let args = Proto.Write { fh = fh 55 9; offset = 24576; data = Xdr.view_of_bytes (Bytes.make 8192 'd') } in
  let call = Testbed.call_frame ~xid:77 args in
  (match Proto.peek_write call with
  | Some (f, off, len) ->
      Alcotest.(check int) "inum" 55 f.Proto.inum;
      Alcotest.(check int) "offset" 24576 off;
      Alcotest.(check int) "len" 8192 len
  | None -> Alcotest.fail "peek_write missed a WRITE");
  (* A READ call must not match. *)
  let read_call = Testbed.call_frame ~xid:78 (Proto.Read { fh = fh 55 9; offset = 0; count = 100 }) in
  Alcotest.(check bool) "read ignored" true (Proto.peek_write read_call = None);
  Alcotest.(check bool) "garbage ignored" true (Proto.peek_write (Bytes.make 3 'x') = None)

let prop_write_args_roundtrip =
  QCheck.Test.make ~name:"WRITE args roundtrip any payload" ~count:100
    QCheck.(pair (int_bound 1_000_000) string)
    (fun (offset, s) ->
      let args = Proto.Write { fh = fh 3 1; offset; data = Xdr.view_of_bytes (Bytes.of_string s) } in
      args_eq (roundtrip_args args) args
      &&
      match roundtrip_args args with
      | Proto.Write { data; _ } -> Xdr.view_to_string data = s
      | _ -> false)

(* {1 Decoder mutation fuzzing}

   Valid frames — every sample argument body inside an RPC call, every
   sample result body inside an RPC reply, MOUNT calls and replies, and
   the bare bodies — are
   damaged by bit flips, truncation and a word overwritten with
   0xFFFFFFFF (the largest XDR length), then fed to every decoder. A
   decoder may reject its input only with the two XDR errors, which
   the server maps to GARBAGE_ARGS or drops; anything else would kill
   an nfsd. [peek_call] may not raise at all. *)

module Rpc = Nfsg_rpc.Rpc

(* Which protocol's decoders a seed frame goes through. *)
type family = Nfs of int | Mount

let print_family = function Nfs proc -> Printf.sprintf "proc %d" proc | Mount -> "mount"

(* Seed frames come from the one encode path; the bare bodies are the
   frames minus their headers. *)
let seed_frames =
  let call fam frame = [ (fam, frame); (fam, Xdr.view_copy (Rpc.decode_call frame).Rpc.body) ]
  and reply fam frame = [ (fam, frame); (fam, Xdr.view_copy (Rpc.decode_reply frame).Rpc.rbody) ] in
  let calls =
    List.mapi
      (fun i args -> call (Nfs (Proto.proc_of_args args)) (Testbed.call_frame ~xid:i args))
      sample_args
  and replies =
    List.mapi (fun i (proc, res) -> reply (Nfs proc) (Testbed.reply_frame ~xid:i res)) sample_res
  and mounts =
    List.map
      (fun name ->
        call Mount
          (Rpc.frame_call (Proto.mnt_args_body name) ~xid:1 ~prog:Rpc.mount_program
             ~vers:Rpc.nfs_version ~proc:Proto.proc_mnt))
      [ ""; "/export/home" ]
    @ List.map
        (fun res -> reply Mount (Rpc.frame_reply (Proto.mnt_res_body res) ~xid:2 Rpc.Success))
        [ Ok (fh 1 1, false); Ok (fh 2 7, true); Error Proto.NFSERR_NOENT ]
  in
  Array.of_list (List.concat (calls @ replies @ mounts))

type mutation = Flip of int | Truncate of int | Max_word of int

let apply_mutation b = function
  | _ when Bytes.length b = 0 -> b
  | Flip bit ->
      let b = Bytes.copy b in
      let i = bit / 8 mod Bytes.length b in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl (bit mod 8)));
      b
  | Truncate n -> Bytes.sub b 0 (n mod Bytes.length b)
  | Max_word w ->
      let words = Bytes.length b / 4 in
      if words = 0 then b
      else begin
        let b = Bytes.copy b in
        Bytes.set_int32_be b (4 * (w mod words)) 0xFFFFFFFFl;
        b
      end

let print_mutation = function
  | Flip bit -> Printf.sprintf "Flip %d" bit
  | Truncate n -> Printf.sprintf "Truncate %d" n
  | Max_word w -> Printf.sprintf "Max_word %d" w

let arb_damaged_frame =
  let open QCheck.Gen in
  let mutation =
    oneof
      [
        map (fun n -> Flip n) (int_bound 8191);
        map (fun n -> Truncate n) (int_bound 1023);
        map (fun n -> Max_word n) (int_bound 255);
      ]
  in
  QCheck.make
    ~print:(fun (i, ms) ->
      Printf.sprintf "frame %d, [%s]" i (String.concat "; " (List.map print_mutation ms)))
    (pair (int_bound (Array.length seed_frames - 1)) (list_size (int_range 1 4) mutation))

(* Every decoder the server or a client runs on a datagram, plus the
   argument and result decoders straight on the bytes. *)
let decoders fam b =
  let view = Xdr.view_of_bytes b in
  let args, res =
    match fam with
    | Nfs proc ->
        ((fun v -> ignore (Proto.decode_args ~proc v)), fun v -> ignore (Proto.decode_res ~proc v))
    | Mount -> ((fun v -> ignore (Proto.decode_mnt_args v)), fun v -> ignore (Proto.decode_mnt_res v))
  in
  [
    ("decode_call", fun () -> args (Rpc.decode_call b).Rpc.body);
    ("decode_reply", fun () -> res (Rpc.decode_reply b).Rpc.rbody);
    ("decode_args", fun () -> args view);
    ("decode_res", fun () -> res view);
  ]

let only_xdr_errors_escape fam b =
  List.iter
    (fun (name, decode) ->
      try decode () with
      | Xdr.Decode_error _ | Xdr.Dec.Error _ -> ()
      | e ->
          QCheck.Test.fail_reportf "%s (%s) raised %s" name (print_family fam)
            (Printexc.to_string e))
    (decoders fam b);
  match Rpc.peek_call b with
  | Some _ | None -> ()
  | exception e -> QCheck.Test.fail_reportf "peek_call raised %s" (Printexc.to_string e)

let prop_damaged_frames_rejected_cleanly =
  QCheck.Test.make ~name:"damaged frames raise only XDR errors" ~count:2000 arb_damaged_frame
    (fun (i, mutations) ->
      let fam, frame = seed_frames.(i) in
      only_xdr_errors_escape fam (List.fold_left apply_mutation frame mutations);
      true)

(* {1 One-pass framing against the two-pass reference}

   Frames used to be built in two passes: the arguments or results were
   encoded into a buffer of their own, which was then copied behind a
   freshly encoded RPC header. Those encoders are kept here as the
   reference model; every frame the one-pass path builds must equal
   theirs byte for byte. *)

module Two_pass = struct
  module Enc = Xdr.Enc

  let put_fh enc (fh : Proto.fh) =
    let b = Bytes.make Proto.fh_bytes '\000' in
    Bytes.set_int32_be b 0 (Int32.of_int fh.fsid);
    Bytes.set_int32_be b 4 (Int32.of_int fh.vgen);
    Bytes.set_int32_be b 8 (Int32.of_int fh.inum);
    Bytes.set_int32_be b 12 (Int32.of_int fh.gen);
    Enc.opaque_fixed enc b

  let put_timeval enc (tv : Proto.timeval) =
    Enc.uint32 enc tv.sec;
    Enc.uint32 enc tv.usec

  let ftype_to_int = function Proto.NFNON -> 0 | NFREG -> 1 | NFDIR -> 2 | NFLNK -> 5
  let stable_to_int = function Proto.Unstable -> 0 | Data_sync -> 1 | File_sync -> 2
  let put_status enc st = Enc.enum enc (Proto.status_to_int st)

  let put_fattr enc (a : Proto.fattr) =
    Enc.enum enc (ftype_to_int a.ftype);
    List.iter (Enc.uint32 enc)
      [ a.mode; a.nlink; a.uid; a.gid; a.size; a.blocksize; a.rdev; a.blocks; a.fsid; a.fileid ];
    put_timeval enc a.atime;
    put_timeval enc a.mtime;
    put_timeval enc a.ctime

  let put_sattr enc (s : Proto.sattr) =
    let u32_or_neg v = if v < 0 then 0xFFFFFFFF else v in
    List.iter (fun v -> Enc.uint32 enc (u32_or_neg v)) [ s.s_mode; s.s_uid; s.s_gid; s.s_size ];
    let tv = function
      | Some tv -> put_timeval enc tv
      | None -> put_timeval enc { Proto.sec = 0xFFFFFFFF; usec = 0xFFFFFFFF }
    in
    tv s.s_atime;
    tv s.s_mtime

  let encode_args (args : Proto.args) =
    let enc = Enc.create () in
    (match args with
    | Null -> ()
    | Getattr fh | Statfs fh | Readlink fh -> put_fh enc fh
    | Symlink { dir; name; target; sattr } ->
        put_fh enc dir;
        Enc.string enc name;
        Enc.string enc target;
        put_sattr enc sattr
    | Setattr (fh, sattr) ->
        put_fh enc fh;
        put_sattr enc sattr
    | Lookup (fh, name) ->
        put_fh enc fh;
        Enc.string enc name
    | Read { fh; offset; count } ->
        put_fh enc fh;
        List.iter (Enc.uint32 enc) [ offset; count; 0 ]
    | Write { fh; offset; data } ->
        put_fh enc fh;
        List.iter (Enc.uint32 enc) [ 0; offset; 0 ];
        Enc.opaque_view enc data
    | Create { dir; name; sattr } | Mkdir { dir; name; sattr } ->
        put_fh enc dir;
        Enc.string enc name;
        put_sattr enc sattr
    | Remove { dir; name } | Rmdir { dir; name } ->
        put_fh enc dir;
        Enc.string enc name
    | Rename { from_dir; from_name; to_dir; to_name } ->
        put_fh enc from_dir;
        Enc.string enc from_name;
        put_fh enc to_dir;
        Enc.string enc to_name
    | Readdir { fh; cookie; count } ->
        put_fh enc fh;
        Enc.uint32 enc cookie;
        Enc.uint32 enc count
    | Write3 { fh; offset; stable; data } ->
        put_fh enc fh;
        Enc.uint64 enc offset;
        Enc.uint32 enc (Xdr.view_length data);
        Enc.enum enc (stable_to_int stable);
        Enc.opaque_view enc data
    | Commit { fh; offset; count } ->
        put_fh enc fh;
        Enc.uint64 enc offset;
        Enc.uint32 enc count);
    Enc.to_bytes enc

  let encode_res (res : Proto.res) =
    let enc = Enc.create () in
    let ok () = put_status enc Proto.NFS_OK in
    (match res with
    | RNull -> ()
    | RStatus st
    | RAttr (Error st)
    | RDirop (Error st)
    | RRead (Error st)
    | RReaddir (Error st)
    | RStatfs (Error st)
    | RReadlink (Error st)
    | RWrite3 (Error st)
    | RCommit (Error st) ->
        put_status enc st
    | RAttr (Ok a) ->
        ok ();
        put_fattr enc a
    | RDirop (Ok (fh, a)) ->
        ok ();
        put_fh enc fh;
        put_fattr enc a
    | RRead (Ok (a, data)) ->
        ok ();
        put_fattr enc a;
        Enc.opaque enc data
    | RReaddir (Ok (entries, eof)) ->
        ok ();
        List.iteri
          (fun i (name, fileid) ->
            Enc.bool enc true;
            Enc.uint32 enc fileid;
            Enc.string enc name;
            Enc.uint32 enc (i + 1))
          entries;
        Enc.bool enc false;
        Enc.bool enc eof
    | RStatfs (Ok s) ->
        ok ();
        List.iter (Enc.uint32 enc) [ s.tsize; s.bsize; s.blocks; s.bfree; s.bavail ]
    | RReadlink (Ok target) ->
        ok ();
        Enc.string enc target
    | RWrite3 (Ok (a, stable, verf)) ->
        ok ();
        put_fattr enc a;
        Enc.enum enc (stable_to_int stable);
        Enc.uint64 enc verf
    | RCommit (Ok (a, verf)) ->
        ok ();
        put_fattr enc a;
        Enc.uint64 enc verf);
    Enc.to_bytes enc

  (* AUTH_NULL credentials and verifier, then the body copied behind. *)
  let encode_call ~xid ~proc body =
    let enc = Enc.create () in
    List.iter (Enc.uint32 enc) [ xid; 0; 2; Rpc.nfs_program; Rpc.nfs_version; proc; 0; 0; 0; 0 ];
    Enc.raw enc body;
    Enc.to_bytes enc

  let encode_reply ~xid body =
    let enc = Enc.create () in
    List.iter (Enc.uint32 enc) [ xid; 1; 0; 0; 0; 0 ];
    Enc.raw enc body;
    Enc.to_bytes enc
end

(* Random messages of every shape, with payload and string lengths on
   and off the 4-byte grain. *)
let gen_fh =
  QCheck.Gen.(
    map
      (fun (fsid, inum, gen) -> { Proto.fsid; vgen = 1; inum; gen })
      (triple (int_bound 7) (int_bound 100_000) (int_bound 1000)))

let gen_name = QCheck.Gen.(string_size ~gen:printable (int_range 0 21))

let gen_payload =
  QCheck.Gen.(
    map
      (fun n -> Xdr.view_of_bytes (Bytes.init n (fun i -> Char.chr (((i * 7) + n) land 255))))
      (oneof [ int_bound 9; int_range 8185 8199; int_bound 9000 ]))

let gen_sattr =
  QCheck.Gen.(
    map
      (fun (size, mtime) ->
        {
          Proto.sattr_none with
          Proto.s_size = size;
          s_mtime = Option.map (fun sec -> { Proto.sec; usec = 0 }) mtime;
        })
      (pair (int_range (-1) 100_000) (opt (int_bound 1_000_000))))

let gen_fattr =
  QCheck.Gen.(
    map
      (fun (size, fileid, sec) ->
        let tv = { Proto.sec; usec = sec mod 1_000_000 } in
        { sample_fattr with Proto.size; fileid; atime = tv; mtime = tv; ctime = tv })
      (triple (int_bound 1_000_000) (int_bound 100_000) (int_bound 2_000_000_000)))

let gen_stable = QCheck.Gen.oneofl [ Proto.Unstable; Proto.Data_sync; Proto.File_sync ]

let gen_args =
  let open QCheck.Gen in
  oneof
    [
      return Proto.Null;
      map (fun fh -> Proto.Getattr fh) gen_fh;
      map2 (fun fh s -> Proto.Setattr (fh, s)) gen_fh gen_sattr;
      map2 (fun fh n -> Proto.Lookup (fh, n)) gen_fh gen_name;
      map3 (fun fh offset count -> Proto.Read { fh; offset; count }) gen_fh (int_bound 1_000_000) (int_bound 8192);
      map3 (fun fh offset data -> Proto.Write { fh; offset; data }) gen_fh (int_bound 1_000_000) gen_payload;
      map3 (fun dir name sattr -> Proto.Create { dir; name; sattr }) gen_fh gen_name gen_sattr;
      map2 (fun dir name -> Proto.Remove { dir; name }) gen_fh gen_name;
      map4
        (fun from_dir from_name to_dir to_name -> Proto.Rename { from_dir; from_name; to_dir; to_name })
        gen_fh gen_name gen_fh gen_name;
      map3 (fun dir name sattr -> Proto.Mkdir { dir; name; sattr }) gen_fh gen_name gen_sattr;
      map2 (fun dir name -> Proto.Rmdir { dir; name }) gen_fh gen_name;
      map3 (fun fh cookie count -> Proto.Readdir { fh; cookie; count }) gen_fh (int_bound 100) (int_bound 8192);
      map (fun fh -> Proto.Statfs fh) gen_fh;
      map (fun fh -> Proto.Readlink fh) gen_fh;
      map4
        (fun dir name target sattr -> Proto.Symlink { dir; name; target; sattr })
        gen_fh gen_name gen_name gen_sattr;
      map4
        (fun fh offset stable data -> Proto.Write3 { fh; offset; stable; data })
        gen_fh (int_bound (1 lsl 40)) gen_stable gen_payload;
      map3 (fun fh offset count -> Proto.Commit { fh; offset; count }) gen_fh (int_bound (1 lsl 40)) (int_bound 65536);
    ]

let gen_status =
  QCheck.Gen.oneofl
    [ Proto.NFSERR_NOENT; Proto.NFSERR_IO; Proto.NFSERR_NOSPC; Proto.NFSERR_ROFS; Proto.NFSERR_STALE ]

let gen_res =
  let open QCheck.Gen in
  let either ok = oneof [ map (fun v -> Ok v) ok; map (fun st -> Error st) gen_status ] in
  oneof
    [
      return Proto.RNull;
      map (fun st -> Proto.RStatus st) gen_status;
      map (fun r -> Proto.RAttr r) (either gen_fattr);
      map (fun r -> Proto.RDirop r) (either (pair gen_fh gen_fattr));
      map (fun r -> Proto.RRead r) (either (pair gen_fattr (map Xdr.view_copy gen_payload)));
      map
        (fun r -> Proto.RReaddir r)
        (either (pair (list_size (int_bound 6) (pair gen_name (int_bound 1000))) bool));
      map
        (fun r -> Proto.RStatfs r)
        (either
           (map
              (fun (blocks, bfree) -> { Proto.tsize = 8192; bsize = 8192; blocks; bfree; bavail = bfree })
              (pair (int_bound 100_000) (int_bound 100_000))));
      map (fun r -> Proto.RReadlink r) (either gen_name);
      map (fun r -> Proto.RWrite3 r) (either (triple gen_fattr gen_stable (int_bound 1000)));
      map (fun r -> Proto.RCommit r) (either (pair gen_fattr (int_bound 1000)));
    ]

let show_frame b = Printf.sprintf "%d bytes" (Bytes.length b)

let prop_frames_match_two_pass =
  QCheck.Test.make ~name:"one-pass frames equal the two-pass reference" ~count:500
    (QCheck.make QCheck.Gen.(triple (int_bound 0xFFFF) gen_args gen_res))
    (fun (xid, args, res) ->
      let call = Testbed.call_frame ~xid args in
      let want_call =
        Two_pass.encode_call ~xid ~proc:(Proto.proc_of_args args) (Two_pass.encode_args args)
      in
      let reply = Testbed.reply_frame ~xid res in
      let want_reply = Two_pass.encode_reply ~xid (Two_pass.encode_res res) in
      if not (Bytes.equal call want_call) then
        QCheck.Test.fail_reportf "call %s differs from reference %s" (show_frame call) (show_frame want_call);
      if not (Bytes.equal reply want_reply) then
        QCheck.Test.fail_reportf "reply %s differs from reference %s" (show_frame reply)
          (show_frame want_reply);
      true)

(* READ replies built the server's way: status and attributes slot
   first, the data straight out of the buffer cache, the slot filled
   last. The file has holes, a zero-length region inside a written
   block and an odd-length tail, and reads start and end anywhere,
   past EOF included. Expected bytes come from a model of the file, not
   from the filesystem's own read. *)
module Fs = Nfsg_ufs.Fs

let read_world =
  lazy
    (let eng = Nfsg_sim.Engine.create () in
     let dev =
       Nfsg_disk.Disk.create eng (Nfsg_disk.Disk.rz26 ~capacity:(16 * 1024 * 1024) ())
     in
     Fs.mkfs dev ();
     let fs = Fs.mount eng dev in
     let size = (5 * 8192) + 1234 in
     let model = Bytes.make size '\000' in
     let put off n seed =
       let data = Bytes.init n (fun i -> Char.chr (((i * 13) + seed) land 255)) in
       Bytes.blit data 0 model off n;
       (off, data)
     in
     let writes =
       [ put 0 8192 1; put ((2 * 8192) + 100) 50 2; put (4 * 8192) 8192 3; put (5 * 8192) 1234 4 ]
     in
     let ino = ref None in
     Nfsg_sim.Engine.spawn eng (fun () ->
         let f = Fs.create fs (Fs.root fs) "holes" Nfsg_ufs.Layout.Regular in
         List.iter (fun (off, data) -> Fs.write fs f ~off data ~mode:Fs.Delay_data) writes;
         ino := Some f);
     Nfsg_sim.Engine.run eng;
     (eng, fs, Option.get !ino, model))

let server_read_frame ~xid ~off ~count =
  let eng, fs, ino, _ = Lazy.force read_world in
  let frame = ref None in
  Nfsg_sim.Engine.spawn eng (fun () ->
      let body, head = Proto.read_reply () in
      Fs.read_ahead fs ino ~stream:0 ~off ~len:count (Rpc.body_enc body);
      Proto.fill_read_ok head sample_fattr;
      frame := Some (Rpc.frame_reply body ~xid Rpc.Success));
  Nfsg_sim.Engine.run eng;
  Option.get !frame

let prop_read_frames_match_two_pass =
  let _, _, _, model = Lazy.force read_world in
  let size = Bytes.length model in
  QCheck.Test.make ~name:"READ replies from the cache equal the two-pass reference" ~count:300
    QCheck.(
      make
        ~print:(fun (off, count) -> Printf.sprintf "off %d, count %d" off count)
        Gen.(
          pair
            (oneof [ int_bound (size + 8192); map (fun b -> b * 8192) (int_bound 6); return size ])
            (oneof [ return 0; return 8192; int_bound 9000 ])))
    (fun (off, count) ->
      let data = Bytes.sub model (min off size) (max 0 (min count (size - off))) in
      let want =
        Two_pass.encode_reply ~xid:off (Two_pass.encode_res (Proto.RRead (Ok (sample_fattr, data))))
      in
      Bytes.equal (server_read_frame ~xid:off ~off ~count) want)

let test_frame_twice_raises () =
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s did not raise" what
    | exception Invalid_argument _ -> ()
  in
  let call = Proto.args_body (Proto.Getattr (fh 3 1)) in
  ignore (Rpc.frame_call call ~xid:1 ~prog:Rpc.nfs_program ~vers:2 ~proc:Proto.proc_getattr);
  raises "framing a call twice" (fun () ->
      Rpc.frame_call call ~xid:2 ~prog:Rpc.nfs_program ~vers:2 ~proc:Proto.proc_getattr);
  let reply = Proto.res_body (Proto.RStatus Proto.NFS_OK) in
  ignore (Rpc.frame_reply reply ~xid:1 Rpc.Success);
  raises "framing a reply twice" (fun () -> Rpc.frame_reply reply ~xid:1 Rpc.Success);
  raises "framing a reply body as a call" (fun () ->
      Rpc.frame_call (Rpc.reply_body ()) ~xid:1 ~prog:Rpc.nfs_program ~vers:2 ~proc:0);
  raises "framing a call body as a reply" (fun () ->
      Rpc.frame_reply (Rpc.call_body ()) ~xid:1 Rpc.Success);
  let body, head = Proto.read_reply () in
  raises "framing over an unfilled slot" (fun () -> Rpc.frame_reply body ~xid:1 Rpc.Success);
  Proto.fill_read_ok head sample_fattr;
  raises "filling a slot twice" (fun () -> Proto.fill_read_ok head sample_fattr)

let suite =
  [
    Alcotest.test_case "all argument types roundtrip" `Quick test_args_roundtrip;
    Alcotest.test_case "all result types roundtrip" `Quick test_res_roundtrip;
    Alcotest.test_case "status codes match RFC 1094" `Quick test_status_codes_stable;
    Alcotest.test_case "timeval conversion" `Quick test_timeval_conversion;
    Alcotest.test_case "peek_write classifies datagrams" `Quick test_peek_write;
    QCheck_alcotest.to_alcotest prop_write_args_roundtrip;
    QCheck_alcotest.to_alcotest prop_damaged_frames_rejected_cleanly;
    QCheck_alcotest.to_alcotest prop_frames_match_two_pass;
    QCheck_alcotest.to_alcotest prop_read_frames_match_two_pass;
    Alcotest.test_case "framing a body twice raises" `Quick test_frame_twice_raises;
  ]
