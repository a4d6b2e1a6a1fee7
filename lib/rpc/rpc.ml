type call = { xid : int; prog : int; vers : int; proc : int; body : Xdr.view }

type accept_stat = Success | Prog_unavail | Proc_unavail | Garbage_args | System_err

type reply = { rxid : int; stat : accept_stat; rbody : Xdr.view }

let nfs_program = 100003
let nfs_version = 2
let mount_program = 100005
let msg_call = 0
let msg_reply = 1
let rpc_version = 2

let accept_stat_to_int = function
  | Success -> 0
  | Prog_unavail -> 1
  | Proc_unavail -> 3
  | Garbage_args -> 4
  | System_err -> 5

let accept_stat_of_int = function
  | 0 -> Success
  | 1 -> Prog_unavail
  | 3 -> Proc_unavail
  | 4 -> Garbage_args
  | 5 -> System_err
  | n -> raise (Xdr.Dec.Error (Printf.sprintf "bad accept_stat %d" n))

let put_auth_null enc =
  (* flavor AUTH_NULL, zero-length body *)
  Xdr.Enc.uint32 enc 0;
  Xdr.Enc.uint32 enc 0

let get_auth dec =
  let _flavor = Xdr.Dec.uint32 dec in
  let body = Xdr.Dec.opaque dec in
  ignore body

(* Fixed header sizes with AUTH_NULL credentials and verifiers: ten
   words ahead of a call's body, six ahead of a reply's. *)
let call_header_bytes = 40
let reply_header_bytes = 24

(* A message body is encoded straight into its final frame: the
   encoder starts with the header's slot reserved, and framing fills
   that slot. The slot belongs to this encoder alone, so framing can
   never write into anyone else's buffer, and filling it twice
   raises. *)
type body = { enc : Xdr.Enc.t; header : Xdr.Enc.slot }

let body_with ~header size_hint =
  let enc = Xdr.Enc.create ~size_hint:(header + size_hint) () in
  { enc; header = Xdr.Enc.slot enc header }

let call_body ?(size_hint = 256) () = body_with ~header:call_header_bytes size_hint
let reply_body ?(size_hint = 256) () = body_with ~header:reply_header_bytes size_hint
let body_enc b = b.enc

(* A header written into the other kind's slot has the wrong size, and
   [fill] rejects it. *)
let frame b write =
  Xdr.Enc.fill b.header write;
  Xdr.Enc.to_bytes b.enc

let frame_call b ~xid ~prog ~vers ~proc =
  frame b (fun enc ->
      Xdr.Enc.uint32 enc xid;
      Xdr.Enc.enum enc msg_call;
      Xdr.Enc.uint32 enc rpc_version;
      Xdr.Enc.uint32 enc prog;
      Xdr.Enc.uint32 enc vers;
      Xdr.Enc.uint32 enc proc;
      (* credentials, then verifier *)
      put_auth_null enc;
      put_auth_null enc)

let decode_call bytes =
  let dec = Xdr.Dec.of_bytes bytes in
  let xid = Xdr.Dec.uint32 dec in
  let mtype = Xdr.Dec.enum dec in
  if mtype <> msg_call then raise (Xdr.Dec.Error "not a call");
  let rv = Xdr.Dec.uint32 dec in
  if rv <> rpc_version then raise (Xdr.Dec.Error "bad RPC version");
  let prog = Xdr.Dec.uint32 dec in
  let vers = Xdr.Dec.uint32 dec in
  let proc = Xdr.Dec.uint32 dec in
  get_auth dec;
  get_auth dec;
  { xid; prog; vers; proc; body = Xdr.Dec.rest_view dec }

let frame_reply b ~xid stat =
  frame b (fun enc ->
      Xdr.Enc.uint32 enc xid;
      Xdr.Enc.enum enc msg_reply;
      (* reply_stat MSG_ACCEPTED *)
      Xdr.Enc.enum enc 0;
      put_auth_null enc;
      (* verifier *)
      Xdr.Enc.enum enc (accept_stat_to_int stat))

let decode_reply bytes =
  let dec = Xdr.Dec.of_bytes bytes in
  let rxid = Xdr.Dec.uint32 dec in
  let mtype = Xdr.Dec.enum dec in
  if mtype <> msg_reply then raise (Xdr.Dec.Error "not a reply");
  let reply_stat = Xdr.Dec.enum dec in
  if reply_stat <> 0 then raise (Xdr.Dec.Error "MSG_DENIED");
  get_auth dec;
  let stat = accept_stat_of_int (Xdr.Dec.enum dec) in
  { rxid; stat; rbody = Xdr.Dec.rest_view dec }

let is_call bytes =
  Bytes.length bytes >= 8
  && Int32.to_int (Bytes.get_int32_be bytes 4) = msg_call

let peek_call bytes =
  try Some (decode_call bytes) with Xdr.Dec.Error _ | Xdr.Decode_error _ -> None
