open Nfsg_nfs
module Xdr = Nfsg_rpc.Xdr

let fh inum gen = { Proto.fsid = 1; vgen = 1; inum; gen }

let roundtrip_args args =
  let proc = Proto.proc_of_args args in
  Proto.decode_args ~proc (Xdr.view_of_bytes (Proto.encode_args args))

(* WRITE data is a view after decoding, so structural equality on the
   args would compare backing buffers; re-encoding instead compares
   the wire form, which is what a roundtrip means. *)
let args_eq a b = Proto.encode_args a = Proto.encode_args b

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

let roundtrip_res ~proc res = Proto.decode_res ~proc (Xdr.view_of_bytes (Proto.encode_res res))

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
  let call =
    Nfsg_rpc.Rpc.encode_call
      {
        Nfsg_rpc.Rpc.xid = 77;
        prog = Nfsg_rpc.Rpc.nfs_program;
        vers = 2;
        proc = Proto.proc_write;
        body = Xdr.view_of_bytes (Proto.encode_args args);
      }
  in
  (match Proto.peek_write call with
  | Some (f, off, len) ->
      Alcotest.(check int) "inum" 55 f.Proto.inum;
      Alcotest.(check int) "offset" 24576 off;
      Alcotest.(check int) "len" 8192 len
  | None -> Alcotest.fail "peek_write missed a WRITE");
  (* A READ call must not match. *)
  let read_call =
    Nfsg_rpc.Rpc.encode_call
      {
        Nfsg_rpc.Rpc.xid = 78;
        prog = Nfsg_rpc.Rpc.nfs_program;
        vers = 2;
        proc = Proto.proc_read;
        body = Xdr.view_of_bytes (Proto.encode_args (Proto.Read { fh = fh 55 9; offset = 0; count = 100 }));
      }
  in
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
   sample result body inside an RPC reply, and the bare bodies — are
   damaged by bit flips, truncation and a word overwritten with
   0xFFFFFFFF (the largest XDR length), then fed to every decoder. A
   decoder may reject its input only with the two XDR errors, which
   the server maps to GARBAGE_ARGS or drops; anything else would kill
   an nfsd. [peek_call] may not raise at all. *)

module Rpc = Nfsg_rpc.Rpc

let seed_frames =
  let calls =
    List.mapi
      (fun i args ->
        let proc = Proto.proc_of_args args in
        let body = Proto.encode_args args in
        let call =
          { Rpc.xid = i; prog = Rpc.nfs_program; vers = 2; proc; body = Xdr.view_of_bytes body }
        in
        [ (proc, Rpc.encode_call call); (proc, body) ])
      sample_args
  and replies =
    List.mapi
      (fun i (proc, res) ->
        let body = Proto.encode_res res in
        let reply = { Rpc.rxid = i; stat = Rpc.Success; rbody = Xdr.view_of_bytes body } in
        [ (proc, Rpc.encode_reply reply); (proc, body) ])
      sample_res
  in
  Array.of_list (List.concat (calls @ replies))

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
let decoders ~proc b =
  let view = Xdr.view_of_bytes b in
  [
    ("decode_call", fun () -> ignore (Proto.decode_args ~proc (Rpc.decode_call b).Rpc.body));
    ("decode_reply", fun () -> ignore (Proto.decode_res ~proc (Rpc.decode_reply b).Rpc.rbody));
    ("decode_args", fun () -> ignore (Proto.decode_args ~proc view));
    ("decode_res", fun () -> ignore (Proto.decode_res ~proc view));
  ]

let only_xdr_errors_escape ~proc b =
  List.iter
    (fun (name, decode) ->
      try decode () with
      | Xdr.Decode_error _ | Xdr.Dec.Error _ -> ()
      | e -> QCheck.Test.fail_reportf "%s (proc %d) raised %s" name proc (Printexc.to_string e))
    (decoders ~proc b);
  match Rpc.peek_call b with
  | Some _ | None -> ()
  | exception e -> QCheck.Test.fail_reportf "peek_call raised %s" (Printexc.to_string e)

let prop_damaged_frames_rejected_cleanly =
  QCheck.Test.make ~name:"damaged frames raise only XDR errors" ~count:2000 arb_damaged_frame
    (fun (i, mutations) ->
      let proc, frame = seed_frames.(i) in
      only_xdr_errors_escape ~proc (List.fold_left apply_mutation frame mutations);
      true)

let suite =
  [
    Alcotest.test_case "all argument types roundtrip" `Quick test_args_roundtrip;
    Alcotest.test_case "all result types roundtrip" `Quick test_res_roundtrip;
    Alcotest.test_case "status codes match RFC 1094" `Quick test_status_codes_stable;
    Alcotest.test_case "timeval conversion" `Quick test_timeval_conversion;
    Alcotest.test_case "peek_write classifies datagrams" `Quick test_peek_write;
    QCheck_alcotest.to_alcotest prop_write_args_roundtrip;
    QCheck_alcotest.to_alcotest prop_damaged_frames_rejected_cleanly;
  ]
