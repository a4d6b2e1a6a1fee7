let pad4 n = (4 - (n mod 4)) mod 4
let opaque_size n = 4 + n + pad4 n

exception Decode_error of { what : string; need : int; pos : int; have : int }

let () =
  Printexc.register_printer (function
    | Decode_error { what; need; pos; have } ->
        Some
          (Printf.sprintf "Xdr.Decode_error: truncated %s: need %d at %d of %d" what need pos have)
    | _ -> None)

(* An offset/length window into a buffer someone else owns. Views are
   how decoded opaques and RPC bodies travel through the stack without
   being copied at every hop; the copy happens exactly once, where the
   bytes escape into storage that outlives the datagram. *)
type view = { view_buf : Bytes.t; view_pos : int; view_len : int }

let view_of_bytes ?(pos = 0) ?len buf =
  let len = match len with Some n -> n | None -> Bytes.length buf - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg
      (Printf.sprintf "Xdr.view_of_bytes: window [%d,+%d) outside %d-byte buffer" pos len
         (Bytes.length buf));
  { view_buf = buf; view_pos = pos; view_len = len }

let empty_view = { view_buf = Bytes.create 0; view_pos = 0; view_len = 0 }
let view_length v = v.view_len
let view_copy v = Bytes.sub v.view_buf v.view_pos v.view_len
let view_to_string v = Bytes.sub_string v.view_buf v.view_pos v.view_len

let blit_view v ~src_off ~dst ~dst_off ~len =
  if src_off < 0 || len < 0 || src_off + len > v.view_len then
    invalid_arg "Xdr.blit_view: range outside view";
  Bytes.blit v.view_buf (v.view_pos + src_off) dst dst_off len

let view_equal a b =
  a.view_len = b.view_len
  &&
  let rec eq i =
    i >= a.view_len
    || Bytes.get a.view_buf (a.view_pos + i) = Bytes.get b.view_buf (b.view_pos + i) && eq (i + 1)
  in
  eq 0

module Enc = struct
  (* A growable byte writer. Encoders are sized from their payload, so
     the common case fills [buf] exactly and {!to_bytes} hands it over
     without a copy; once handed over, the next append finds the buffer
     full and moves to a fresh one, never writing into the returned
     bytes. [open_slots] counts reserved slots not yet filled: their
     bytes are uninitialised, so nothing may leave the encoder while
     one is open. *)
  type t = { mutable buf : Bytes.t; mutable len : int; mutable open_slots : int }

  (* A fixed-size hole at a fixed offset of one encoder. The slot keeps
     its owner, so a fill can only ever land in the buffer that reserved
     it. *)
  type slot = { owner : t; at : int; size : int; mutable filled : bool }

  let create ?(size_hint = 256) () =
    { buf = Bytes.create (Stdlib.max 0 size_hint); len = 0; open_slots = 0 }

  (* Make room for [n] more bytes and return where they start. This may
     replace [t.buf], so read [t.buf] only after it returns. *)
  let reserve t n =
    let at = t.len in
    if at + n > Bytes.length t.buf then begin
      let grown = Bytes.create (Stdlib.max (at + n) (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 grown 0 at;
      t.buf <- grown
    end;
    t.len <- at + n;
    at

  let put_int32 t v =
    let at = reserve t 4 in
    Bytes.set_int32_be t.buf at (Int32.of_int v)

  let uint32 t v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg (Printf.sprintf "Xdr.uint32: %d" v);
    put_int32 t v

  let int32 t v =
    if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
      invalid_arg (Printf.sprintf "Xdr.int32: %d" v);
    put_int32 t v

  let uint64 t v =
    if v < 0 then invalid_arg (Printf.sprintf "Xdr.uint64: %d" v);
    let at = reserve t 8 in
    Bytes.set_int64_be t.buf at (Int64.of_int v)

  let bool t v = uint32 t (if v then 1 else 0)
  let enum t v = int32 t v

  let raw_sub t src pos n =
    let at = reserve t n in
    Bytes.blit src pos t.buf at n

  let pad t n =
    let p = pad4 n in
    let at = reserve t p in
    Bytes.fill t.buf at p '\000'

  let opaque_fixed t data =
    raw_sub t data 0 (Bytes.length data);
    pad t (Bytes.length data)

  let opaque t data =
    uint32 t (Bytes.length data);
    opaque_fixed t data

  let string t s =
    let n = String.length s in
    uint32 t n;
    let at = reserve t n in
    Bytes.blit_string s 0 t.buf at n;
    pad t n

  let raw t data = raw_sub t data 0 (Bytes.length data)

  let opaque_view t v =
    uint32 t v.view_len;
    raw_sub t v.view_buf v.view_pos v.view_len;
    pad t v.view_len

  (* Length, data and padding are reserved in one step, so a buffer
     that must grow grows once, to the exact end of the opaque. *)
  let opaque_fill t n write =
    if n < 0 then invalid_arg "Xdr.Enc.opaque_fill: negative length";
    uint32 t n;
    let p = pad4 n in
    let at = reserve t (n + p) in
    Bytes.fill t.buf (at + n) p '\000';
    write t.buf at

  let slot t size =
    if size < 0 then invalid_arg "Xdr.Enc.slot: negative size";
    let at = reserve t size in
    t.open_slots <- t.open_slots + 1;
    { owner = t; at; size; filled = false }

  let fill s write =
    if s.filled then invalid_arg "Xdr.Enc.fill: slot already filled";
    s.filled <- true;
    let t = s.owner in
    let saved = t.len in
    t.len <- s.at;
    let wrote =
      match write t with
      | () -> t.len - s.at
      | exception e ->
          t.len <- saved;
          raise e
    in
    t.len <- saved;
    if wrote <> s.size then
      invalid_arg (Printf.sprintf "Xdr.Enc.fill: wrote %d bytes into a %d-byte slot" wrote s.size);
    t.open_slots <- t.open_slots - 1

  let to_bytes t =
    if t.open_slots > 0 then invalid_arg "Xdr.Enc.to_bytes: a reserved slot is still unfilled";
    if t.len = Bytes.length t.buf then t.buf else Bytes.sub t.buf 0 t.len

  let length t = t.len
end

module Dec = struct
  (* [limit] bounds the decodable window so a decoder over a view
     cannot read past the view's end even though the underlying buffer
     continues; truncation errors report positions relative to the
     window start ([base]). *)
  type t = { buf : Bytes.t; base : int; limit : int; mutable pos : int }

  exception Error of string

  let of_bytes ?(pos = 0) buf = { buf; base = 0; limit = Bytes.length buf; pos }

  let of_view v =
    { buf = v.view_buf; base = v.view_pos; limit = v.view_pos + v.view_len; pos = v.view_pos }

  let need t ~what n =
    if t.pos + n > t.limit then
      raise (Decode_error { what; need = n; pos = t.pos - t.base; have = t.limit - t.base })

  let uint32 t =
    need t ~what:"uint32" 4;
    let v = Int32.to_int (Bytes.get_int32_be t.buf t.pos) land 0xFFFFFFFF in
    t.pos <- t.pos + 4;
    v

  let int32 t =
    need t ~what:"int32" 4;
    let v = Int32.to_int (Bytes.get_int32_be t.buf t.pos) in
    t.pos <- t.pos + 4;
    v

  let uint64 t =
    need t ~what:"uint64" 8;
    let v = Int64.to_int (Bytes.get_int64_be t.buf t.pos) in
    t.pos <- t.pos + 8;
    if v < 0 then raise (Error "uint64 overflow");
    v

  let bool t =
    match uint32 t with
    | 0 -> false
    | 1 -> true
    | n -> raise (Error (Printf.sprintf "bad bool %d" n))

  let enum t = int32 t

  let opaque_fixed_view t n =
    if n < 0 then raise (Error "negative opaque length");
    need t ~what:"opaque" (n + pad4 n);
    let v = { view_buf = t.buf; view_pos = t.pos; view_len = n } in
    t.pos <- t.pos + n + pad4 n;
    v

  let opaque_fixed t n = view_copy (opaque_fixed_view t n)

  let opaque_view t =
    let n = uint32 t in
    opaque_fixed_view t n

  let opaque t = view_copy (opaque_view t)
  let string t = view_to_string (opaque_view t)

  let rest_view t =
    let v = { view_buf = t.buf; view_pos = t.pos; view_len = t.limit - t.pos } in
    t.pos <- t.limit;
    v

  let rest t = view_copy (rest_view t)
  let pos t = t.pos - t.base
  let remaining t = t.limit - t.pos
end
