(** SunRPC (RFC 1057) message framing over UDP datagrams.

    Only the slice of the protocol NFS v2 needs: AUTH_NULL credentials,
    accepted/success replies plus the error accept-states the server
    actually generates. *)

type call = {
  xid : int;
  prog : int;
  vers : int;
  proc : int;
  body : Xdr.view;  (** procedure-specific arguments, already XDR — a window into the datagram *)
}

type accept_stat = Success | Prog_unavail | Proc_unavail | Garbage_args | System_err

type reply = { rxid : int; stat : accept_stat; rbody : Xdr.view }

(** {1 Framing}

    A message is encoded once, straight into the buffer that goes on
    the wire: a {!body} is an encoder whose header slot is reserved up
    front, the procedure's encoder appends the arguments or results,
    and framing writes the header into the slot. A body sized exactly
    to its buffer is sent without any further copy. *)

type body

val call_body : ?size_hint:int -> unit -> body
(** A call body: 40 header bytes reserved. [size_hint] (default 256)
    is the expected size of what follows the header; an exact hint
    means the frame is the encoder's own buffer. *)

val reply_body : ?size_hint:int -> unit -> body
(** A reply body: 24 header bytes reserved. *)

val body_enc : body -> Xdr.Enc.t
(** Where the arguments or results go. *)

val frame_call : body -> xid:int -> prog:int -> vers:int -> proc:int -> Bytes.t
(** Write the call header into the body's slot and return the frame.
    Raises [Invalid_argument] on a body framed before, or on a reply
    body. *)

val frame_reply : body -> xid:int -> accept_stat -> Bytes.t
(** {!frame_call} for replies (accepted, AUTH_NULL verifier). *)

(** {1 Decoding} *)

val decode_call : Bytes.t -> call
(** Raises {!Xdr.Dec.Error} on garbage. *)

val decode_reply : Bytes.t -> reply

val is_call : Bytes.t -> bool
(** Cheap test: does this datagram look like an RPC call? (For the
    mbuf hunter, which must classify raw socket-buffer contents.) *)

val peek_call : Bytes.t -> call option
(** Non-raising decode, for scanning. *)

val nfs_program : int
val nfs_version : int

val mount_program : int
(** The MOUNT service (100005), multiplexed over the same socket as
    NFS; used to resolve an export name to a root filehandle. *)
