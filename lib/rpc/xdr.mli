(** XDR (RFC 1014) serialisation: the wire encoding under SunRPC and
    NFS. Everything is big-endian and padded to 4-byte alignment. *)

exception Decode_error of { what : string; need : int; pos : int; have : int }
(** Truncated input: decoding a [what] needed [need] more bytes at
    cursor [pos] of a [have]-byte window. A request body that raises
    this is well-framed RPC but garbage arguments — {!Nfsg_rpc.Svc}
    maps it to a [Garbage_args] reply rather than [System_err]. *)

type view = { view_buf : Bytes.t; view_pos : int; view_len : int }
(** A zero-copy [pos]/[len] window into someone else's buffer. Decoded
    opaques and RPC bodies are views into the datagram they arrived
    in: valid exactly as long as that buffer is, which in the simulator
    means until the owner reuses it. Call {!view_copy} at the single
    point where the bytes must outlive the datagram (e.g. entering the
    buffer cache); everywhere else, pass the view. *)

val view_of_bytes : ?pos:int -> ?len:int -> Bytes.t -> view
(** [view_of_bytes b] views all of [b]; [pos]/[len] narrow the window.
    Raises [Invalid_argument] if the window overruns [b]. *)

val empty_view : view

val view_length : view -> int

val view_copy : view -> Bytes.t
(** Materialise the window as fresh bytes the caller owns. *)

val view_to_string : view -> string

val blit_view : view -> src_off:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit
(** Copy [len] bytes starting at window-relative [src_off] into [dst].
    The escape hatch for cache fills; bounds-checked against the
    window. *)

val view_equal : view -> view -> bool
(** Content equality. Structural ([=]) equality on views compares the
    whole backing buffers and window offsets, which is almost never
    what a test means. *)

val opaque_size : int -> int
(** Encoded size of an [n]-byte variable-length opaque: length word,
    bytes and padding. For sizing encoders from their payload. *)

module Enc : sig
  type t
  (** A growable byte writer. *)

  val create : ?size_hint:int -> unit -> t
  (** [size_hint] (default 256) is the initial capacity. An encoder
      sized exactly to its output never grows and never copies on
      {!to_bytes}. *)

  val uint32 : t -> int -> unit
  (** Raises [Invalid_argument] outside [0, 2^32). *)

  val int32 : t -> int -> unit
  val uint64 : t -> int -> unit
  val bool : t -> bool -> unit
  val enum : t -> int -> unit

  val opaque_fixed : t -> Bytes.t -> unit
  (** Raw bytes padded to a 4-byte boundary, no length prefix. *)

  val opaque : t -> Bytes.t -> unit
  (** Variable-length opaque: length prefix + padded bytes. *)

  val opaque_view : t -> view -> unit
  (** {!opaque}, straight out of a view without an intermediate copy. *)

  val string : t -> string -> unit

  val raw : t -> Bytes.t -> unit
  (** Append bytes verbatim, no padding. *)

  val opaque_fill : t -> int -> (Bytes.t -> int -> unit) -> unit
  (** [opaque_fill t n write] appends an [n]-byte variable-length
      opaque whose bytes [write buf pos] produces in place: it must
      set all of [buf.[pos] .. buf.[pos + n - 1]]. The length word and
      the padding are written here; nothing else is initialised, so
      the payload is copied exactly once, by [write]. [write] may
      park the calling process; no other writer may append to [t]
      meanwhile. *)

  type slot
  (** A fixed-size hole reserved in one encoder, written later: how a
      header whose contents are known only after the body (an RPC
      xid, a READ's attributes) is framed without a second copy. *)

  val slot : t -> int -> slot
  (** Reserve [n] bytes at the cursor; later appends go after them. *)

  val fill : slot -> (t -> unit) -> unit
  (** [fill s write] runs [write] on the encoder that reserved [s], with
      its cursor at the slot; [write] must append exactly the slot's
      size. Raises [Invalid_argument] if [s] was filled before, or if
      [write] wrote any other number of bytes. *)

  val to_bytes : t -> Bytes.t
  (** The bytes written so far. When they fill the buffer exactly, the
      buffer itself is returned; either way, later appends to the
      encoder never change the returned bytes. Raises
      [Invalid_argument] while a reserved slot is unfilled. *)

  val length : t -> int
end

module Dec : sig
  type t

  exception Error of string
  (** Raised on malformed (but not truncated) input — bad enum values,
      framing that is not a call, and the like. Truncation raises the
      typed {!Decode_error} instead. *)

  val of_bytes : ?pos:int -> Bytes.t -> t

  val of_view : view -> t
  (** Decode within the window only: reads past [view_len] raise
      {!Decode_error} even if the backing buffer continues, so a
      truncated view cannot silently leak bytes from its neighbours. *)

  val uint32 : t -> int
  val int32 : t -> int
  val uint64 : t -> int
  val bool : t -> bool
  val enum : t -> int
  val opaque_fixed : t -> int -> Bytes.t
  val opaque : t -> Bytes.t

  val opaque_view : t -> view
  (** Zero-copy {!opaque}: length-prefixed window, no allocation
      proportional to the payload. *)

  val string : t -> string

  val rest : t -> Bytes.t
  (** [rest t] is everything from the cursor to the end, verbatim (no
      padding rules) — the body of an RPC message. *)

  val rest_view : t -> view
  (** Zero-copy {!rest}. *)

  val pos : t -> int
  val remaining : t -> int
end
