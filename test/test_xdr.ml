open Nfsg_rpc

let test_int_roundtrips () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.uint32 enc 0;
  Xdr.Enc.uint32 enc 0xFFFFFFFF;
  Xdr.Enc.int32 enc (-5);
  Xdr.Enc.uint64 enc 123456789012345;
  Xdr.Enc.bool enc true;
  Xdr.Enc.bool enc false;
  let dec = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes enc) in
  Alcotest.(check int) "u32 min" 0 (Xdr.Dec.uint32 dec);
  Alcotest.(check int) "u32 max" 0xFFFFFFFF (Xdr.Dec.uint32 dec);
  Alcotest.(check int) "i32 negative" (-5) (Xdr.Dec.int32 dec);
  Alcotest.(check int) "u64" 123456789012345 (Xdr.Dec.uint64 dec);
  Alcotest.(check bool) "true" true (Xdr.Dec.bool dec);
  Alcotest.(check bool) "false" false (Xdr.Dec.bool dec);
  Alcotest.(check int) "fully consumed" 0 (Xdr.Dec.remaining dec)

let test_opaque_padding () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.opaque enc (Bytes.of_string "abcde");
  (* 4 length + 5 data + 3 pad *)
  Alcotest.(check int) "padded length" 12 (Xdr.Enc.length enc);
  let dec = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes enc) in
  Alcotest.(check string) "roundtrip" "abcde" (Bytes.to_string (Xdr.Dec.opaque dec));
  Alcotest.(check int) "pad consumed" 0 (Xdr.Dec.remaining dec)

let test_string_roundtrip () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.string enc "";
  Xdr.Enc.string enc "hello world";
  let dec = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes enc) in
  Alcotest.(check string) "empty" "" (Xdr.Dec.string dec);
  Alcotest.(check string) "text" "hello world" (Xdr.Dec.string dec)

let test_truncation_raises () =
  let dec = Xdr.Dec.of_bytes (Bytes.make 2 'x') in
  (match Xdr.Dec.uint32 dec with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Xdr.Decode_error { what = "uint32"; need = 4; pos = 0; have = 2 } -> ());
  (* A declared opaque length running past the end of the buffer is the
     same typed error, with the cursor past the length word. *)
  let enc = Xdr.Enc.create () in
  Xdr.Enc.uint32 enc 64;
  Xdr.Enc.raw enc (Bytes.make 10 'x');
  let dec = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes enc) in
  match Xdr.Dec.opaque dec with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Xdr.Decode_error { what = "opaque"; need = 64; pos = 4; have = 14 } -> ()

let test_uint32_range_checked () =
  let enc = Xdr.Enc.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Xdr.uint32: -1") (fun () ->
      Xdr.Enc.uint32 enc (-1))

let test_bad_bool () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.uint32 enc 7;
  let dec = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes enc) in
  match Xdr.Dec.bool dec with
  | _ -> Alcotest.fail "expected Error"
  | exception Xdr.Dec.Error _ -> ()

(* The zero-copy contract: a decoded view aliases the datagram buffer,
   so reusing that buffer is visible through the view — bytes survive
   only where the caller explicitly copied them out. *)
let test_view_aliases_source () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.opaque enc (Bytes.of_string "payload!");
  let buf = Xdr.Enc.to_bytes enc in
  let dec = Xdr.Dec.of_bytes buf in
  let v = Xdr.Dec.opaque_view dec in
  let copied = Xdr.view_copy v in
  Alcotest.(check string) "view reads payload" "payload!" (Xdr.view_to_string v);
  (* Reuse the backing buffer, as the socket layer reuses datagrams. *)
  Bytes.fill buf 0 (Bytes.length buf) 'Z';
  Alcotest.(check string) "view sees the reuse" "ZZZZZZZZ" (Xdr.view_to_string v);
  Alcotest.(check string) "explicit copy survives it" "payload!" (Bytes.to_string copied)

(* Decoding through a view window must stop at the window's end even
   when the backing buffer keeps going, and report positions relative
   to the window. *)
let test_view_decode_bounded () =
  let enc = Xdr.Enc.create () in
  Xdr.Enc.uint32 enc 7;
  Xdr.Enc.uint32 enc 9;
  let buf = Xdr.Enc.to_bytes enc in
  let dec = Xdr.Dec.of_view (Xdr.view_of_bytes ~pos:0 ~len:4 buf) in
  Alcotest.(check int) "word inside the window" 7 (Xdr.Dec.uint32 dec);
  (match Xdr.Dec.uint32 dec with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Xdr.Decode_error { what = "uint32"; need = 4; pos = 4; have = 4 } -> ());
  (* A mid-buffer window reports window-relative positions too. *)
  let dec = Xdr.Dec.of_view (Xdr.view_of_bytes ~pos:4 ~len:4 buf) in
  Alcotest.(check int) "second word via offset window" 9 (Xdr.Dec.uint32 dec);
  Alcotest.(check int) "window fully consumed" 0 (Xdr.Dec.remaining dec)

let test_view_bounds_checked () =
  let buf = Bytes.make 8 'x' in
  Alcotest.check_raises "len past end"
    (Invalid_argument "Xdr.view_of_bytes: window [4,+8) outside 8-byte buffer") (fun () ->
      ignore (Xdr.view_of_bytes ~pos:4 ~len:8 buf))

let prop_opaque_roundtrip =
  QCheck.Test.make ~name:"opaque roundtrips arbitrary bytes" ~count:300 QCheck.string (fun s ->
      let enc = Xdr.Enc.create () in
      Xdr.Enc.opaque enc (Bytes.of_string s);
      let dec = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes enc) in
      Bytes.to_string (Xdr.Dec.opaque dec) = s)

let prop_mixed_roundtrip =
  QCheck.Test.make ~name:"mixed field sequences roundtrip" ~count:200
    QCheck.(list (pair (int_bound 1000000) string))
    (fun items ->
      let enc = Xdr.Enc.create () in
      List.iter
        (fun (n, s) ->
          Xdr.Enc.uint32 enc n;
          Xdr.Enc.string enc s)
        items;
      let dec = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes enc) in
      List.for_all (fun (n, s) -> Xdr.Dec.uint32 dec = n && Xdr.Dec.string dec = s) items)

(* {1 Encoders against a reference}

   A test-local encoder over [Buffer], written straight from RFC 1014,
   1057 and 1094, byte for byte what the whole call or reply frame must
   be. *)
module Ref = struct
  let u32 b v =
    let w = Bytes.create 4 in
    Bytes.set_int32_be w 0 (Int32.of_int v);
    Buffer.add_bytes b w

  let pad b n = Buffer.add_string b (String.make ((4 - (n mod 4)) mod 4) '\000')

  let opaque b s =
    u32 b (String.length s);
    Buffer.add_string b s;
    pad b (String.length s)

  (* The 32-byte handle: four words of identity, then zeros. *)
  let fh b (h : Nfsg_nfs.Proto.fh) =
    List.iter (u32 b) [ h.fsid; h.vgen; h.inum; h.gen ];
    Buffer.add_string b (String.make 16 '\000')

  let fattr b (a : Nfsg_nfs.Proto.fattr) =
    List.iter (u32 b)
      [ 1; a.mode; a.nlink; a.uid; a.gid; a.size; a.blocksize; a.rdev; a.blocks; a.fsid; a.fileid;
        a.atime.sec; a.atime.usec; a.mtime.sec; a.mtime.usec; a.ctime.sec; a.ctime.usec ]

  (* AUTH_NULL credentials and verifier. *)
  let call ~xid ~proc body =
    let b = Buffer.create 64 in
    List.iter (u32 b) [ xid; 0; 2; 100003; 2; proc; 0; 0; 0; 0 ];
    body b;
    Buffer.to_bytes b

  let reply ~xid body =
    let b = Buffer.create 64 in
    List.iter (u32 b) [ xid; 1; 0; 0; 0; 0 ];
    body b;
    Buffer.to_bytes b
end

module P = Nfsg_nfs.Proto

let ref_fh = { P.fsid = 3; vgen = 1; inum = 4242; gen = 7 }

let ref_attr =
  let tv sec = { P.sec; usec = sec * 3 } in
  {
    P.ftype = P.NFREG;
    mode = 0o644;
    nlink = 1;
    uid = 100;
    gid = 10;
    size = 81920;
    blocksize = 8192;
    rdev = 0;
    blocks = 160;
    fsid = 3;
    fileid = 4242;
    atime = tv 11;
    mtime = tv 12;
    ctime = tv 13;
  }

let call ~xid args = Testbed.call_frame ~xid args
let reply ~xid res = Testbed.reply_frame ~xid res

let check_frame what want got = Alcotest.(check string) what (Bytes.to_string want) (Bytes.to_string got)

(* Payload lengths on and off the 4-byte grain, around one 8 KiB block. *)
let payload_lengths = [ 0; 1; 3; 4; 13; 8191; 8192; 8193 ]

let test_write_call_matches_reference () =
  List.iter
    (fun n ->
      let data = String.init n (fun i -> Char.chr (i * 31 mod 256)) in
      let args = P.Write { fh = ref_fh; offset = 65536; data = Xdr.view_of_bytes (Bytes.of_string data) } in
      let want =
        Ref.call ~xid:77 ~proc:8 (fun b ->
            Ref.fh b ref_fh;
            List.iter (Ref.u32 b) [ 0; 65536; 0 ];
            Ref.opaque b data)
      in
      check_frame (Printf.sprintf "WRITE call, %d-byte payload" n) want (call ~xid:77 args))
    payload_lengths

let test_read_matches_reference () =
  check_frame "READ call"
    (Ref.call ~xid:5 ~proc:6 (fun b ->
         Ref.fh b ref_fh;
         List.iter (Ref.u32 b) [ 16384; 8192; 0 ]))
    (call ~xid:5 (P.Read { fh = ref_fh; offset = 16384; count = 8192 }));
  List.iter
    (fun n ->
      let data = String.init n (fun i -> Char.chr (255 - (i mod 256))) in
      check_frame
        (Printf.sprintf "READ ok reply, %d-byte payload" n)
        (Ref.reply ~xid:5 (fun b ->
             Ref.u32 b 0;
             Ref.fattr b ref_attr;
             Ref.opaque b data))
        (reply ~xid:5 (P.RRead (Ok (ref_attr, Bytes.of_string data)))))
    payload_lengths;
  check_frame "READ error reply"
    (Ref.reply ~xid:6 (fun b -> Ref.u32 b 5))
    (reply ~xid:6 (P.RRead (Error P.NFSERR_IO)))

let test_lookup_matches_reference () =
  check_frame "LOOKUP call"
    (Ref.call ~xid:9 ~proc:4 (fun b ->
         Ref.fh b ref_fh;
         Ref.opaque b "vmunix"))
    (call ~xid:9 (P.Lookup (ref_fh, "vmunix")));
  check_frame "LOOKUP ok reply"
    (Ref.reply ~xid:9 (fun b ->
         Ref.u32 b 0;
         Ref.fh b ref_fh;
         Ref.fattr b ref_attr))
    (reply ~xid:9 (P.RDirop (Ok (ref_fh, ref_attr))));
  check_frame "LOOKUP error reply"
    (Ref.reply ~xid:10 (fun b -> Ref.u32 b 2))
    (reply ~xid:10 (P.RDirop (Error P.NFSERR_NOENT)))

let test_readdir_matches_reference () =
  check_frame "READDIR call"
    (Ref.call ~xid:12 ~proc:16 (fun b ->
         Ref.fh b ref_fh;
         List.iter (Ref.u32 b) [ 0; 4096 ]))
    (call ~xid:12 (P.Readdir { fh = ref_fh; cookie = 0; count = 4096 }));
  let entries = [ (".", 2); ("..", 2); ("a", 17); ("passwd.old", 4242) ] in
  check_frame "READDIR ok reply"
    (Ref.reply ~xid:12 (fun b ->
         Ref.u32 b 0;
         List.iteri
           (fun i (name, fileid) ->
             Ref.u32 b 1;
             Ref.u32 b fileid;
             Ref.opaque b name;
             Ref.u32 b (i + 1))
           entries;
         Ref.u32 b 0;
         Ref.u32 b 1))
    (reply ~xid:12 (P.RReaddir (Ok (entries, true))))

(* Exact sizing: encoding an 8 KiB WRITE allocates no more than two
   payload copies, the ceiling of the old two-pass path (arguments,
   then frame). The one-pass path is held to one copy below. *)
let test_write_encoding_allocates_two_copies () =
  let data = Xdr.view_of_bytes (Bytes.make 8192 'w') in
  let args = P.Write { fh = ref_fh; offset = 0; data } in
  let _frame, bytes = Testbed.allocated_bytes (fun () -> call ~xid:1 args) in
  if bytes > 2.5 *. 8192.0 then Alcotest.failf "encoding an 8 KiB WRITE allocated %.0f bytes" bytes

(* [to_bytes] may hand over the encoder's own buffer; appending after
   that must never write into it. *)
let test_to_bytes_survives_appends () =
  let exact = Xdr.Enc.create ~size_hint:8 () in
  Xdr.Enc.uint32 exact 1;
  Xdr.Enc.uint32 exact 2;
  let full = Xdr.Enc.to_bytes exact in
  let full_copy = Bytes.copy full in
  Xdr.Enc.uint32 exact 3;
  Xdr.Enc.opaque exact (Bytes.of_string "tail");
  Alcotest.(check bytes) "exactly-full buffer unchanged" full_copy full;
  let loose = Xdr.Enc.create ~size_hint:64 () in
  Xdr.Enc.uint32 loose 4;
  let part = Xdr.Enc.to_bytes loose in
  let part_copy = Bytes.copy part in
  Xdr.Enc.uint64 loose 5;
  Alcotest.(check bytes) "partly-filled buffer unchanged" part_copy part;
  Alcotest.(check int) "encoder kept every byte" 12 (Xdr.Enc.length loose);
  let all = Xdr.Enc.to_bytes exact in
  Alcotest.(check int) "appends after to_bytes land" 20 (Bytes.length all);
  Alcotest.(check bytes) "earlier bytes carried over" full_copy (Bytes.sub all 0 8)

(* One-pass framing: the arguments are encoded straight into the frame
   behind its reserved header, so an 8 KiB WRITE allocates its payload
   once, in the buffer that goes on the wire, and little else. *)
let test_write_frame_is_the_only_copy () =
  let data = Xdr.view_of_bytes (Bytes.make 8192 'w') in
  let args = P.Write { fh = ref_fh; offset = 0; data } in
  let frame, bytes = Testbed.allocated_bytes (fun () -> call ~xid:1 args) in
  Alcotest.(check int) "frame size" (40 + 32 + 12 + 4 + 8192) (Bytes.length frame);
  if bytes > 1.1 *. 8192.0 then Alcotest.failf "framing an 8 KiB WRITE allocated %.0f bytes" bytes

let suite =
  [
    Alcotest.test_case "integers roundtrip" `Quick test_int_roundtrips;
    Alcotest.test_case "opaque pads to 4 bytes" `Quick test_opaque_padding;
    Alcotest.test_case "strings roundtrip" `Quick test_string_roundtrip;
    Alcotest.test_case "truncated input raises" `Quick test_truncation_raises;
    Alcotest.test_case "uint32 range checked" `Quick test_uint32_range_checked;
    Alcotest.test_case "bad bool rejected" `Quick test_bad_bool;
    Alcotest.test_case "views alias their source buffer" `Quick test_view_aliases_source;
    Alcotest.test_case "view decoding stops at the window" `Quick test_view_decode_bounded;
    Alcotest.test_case "view construction bounds-checked" `Quick test_view_bounds_checked;
    QCheck_alcotest.to_alcotest prop_opaque_roundtrip;
    QCheck_alcotest.to_alcotest prop_mixed_roundtrip;
    Alcotest.test_case "WRITE call matches reference encoder" `Quick test_write_call_matches_reference;
    Alcotest.test_case "READ frames match reference encoder" `Quick test_read_matches_reference;
    Alcotest.test_case "LOOKUP frames match reference encoder" `Quick test_lookup_matches_reference;
    Alcotest.test_case "READDIR frames match reference encoder" `Quick test_readdir_matches_reference;
    Alcotest.test_case "8 KiB WRITE encodes with two payload copies" `Quick
      test_write_encoding_allocates_two_copies;
    Alcotest.test_case "to_bytes survives later appends" `Quick test_to_bytes_survives_appends;
    Alcotest.test_case "8 KiB WRITE frame is the only payload copy" `Quick
      test_write_frame_is_the_only_copy;
  ]
