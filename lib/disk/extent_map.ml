module IntMap = Map.Make (Int)

(* A window onto bytes the map owns. The bytes are never written after
   the insert that copied them in, so trimming a slice is a new window,
   not a copy. *)
type slice = { buf : Bytes.t; pos : int; n : int }

(* A coalesced extent: [size] bytes, the concatenation of its slices in
   offset order. Appending an 8 KB write to a 1 MB extent adds one
   slice instead of copying the megabyte. *)
type extent = { size : int; slices : slice list }

type t = { mutable extents : extent IntMap.t (* start offset -> extent *); mutable total : int }

let create () = { extents = IntMap.empty; total = 0 }
let is_empty m = IntMap.is_empty m.extents
let total_bytes m = m.total
let extent_count m = IntMap.cardinal m.extents

let end_of s e = s + e.size

(* The slices covering [from, from+len) of an extent's bytes, trimmed
   to that window. *)
let sub_slices slices ~from ~len =
  let rec go at acc = function
    | [] -> List.rev acc
    | sl :: rest ->
        let lo = Stdlib.max from at and hi = Stdlib.min (from + len) (at + sl.n) in
        if at >= from + len then List.rev acc
        else if hi > lo then
          go (at + sl.n) ({ sl with pos = sl.pos + lo - at; n = hi - lo } :: acc) rest
        else go (at + sl.n) acc rest
  in
  go 0 [] slices

(* Copy [from, from+len) of an extent's bytes into [dst] at [dst_off]. *)
let blit_slices slices ~from dst ~dst_off ~len =
  ignore
    (List.fold_left
       (fun at sl ->
         let lo = Stdlib.max from at and hi = Stdlib.min (from + len) (at + sl.n) in
         if hi > lo then Bytes.blit sl.buf (sl.pos + lo - at) dst (dst_off + lo - from) (hi - lo);
         at + sl.n)
       0 slices)

let contents e =
  let b = Bytes.create e.size in
  blit_slices e.slices ~from:0 b ~dst_off:0 ~len:e.size;
  b

let add m s e =
  m.extents <- IntMap.add s e m.extents;
  m.total <- m.total + e.size

let drop m s e =
  m.extents <- IntMap.remove s m.extents;
  m.total <- m.total - e.size

(* [e]'s bytes [from, from+len) as an extent of their own. *)
let trim e ~from ~len =
  if from = 0 && len = e.size then e else { size = len; slices = sub_slices e.slices ~from ~len }

(* Extents overlapping or touching [off, off+len), in offset order: the
   last one starting at or before [off] if it reaches [off], then every
   one starting inside the range. *)
let touching m ~off ~len =
  let first =
    match IntMap.find_last_opt (fun s -> s <= off) m.extents with
    | Some (s, e) when end_of s e >= off -> [ (s, e) ]
    | Some _ | None -> []
  in
  let rest =
    IntMap.to_seq_from (off + 1) m.extents
    |> Seq.take_while (fun (s, _) -> s <= off + len)
    |> List.of_seq
  in
  first @ rest

let remove_range m ~off ~len =
  if len > 0 then
    List.iter
      (fun (s, e) ->
        let e_end = end_of s e in
        if s < off + len && e_end > off then begin
          drop m s e;
          (* Put back any prefix before the removed range. *)
          if s < off then add m s (trim e ~from:0 ~len:(off - s));
          (* Put back any suffix after the removed range. *)
          if e_end > off + len then
            add m (off + len) (trim e ~from:(off + len - s) ~len:(e_end - off - len))
        end)
      (touching m ~off ~len)

let insert m ~off data =
  let len = Bytes.length data in
  if len > 0 then begin
    (* Everything the new bytes overlap or touch merges into one
       extent; only the first neighbour can start before them and only
       the last can end after them. New data wins over old overlapped
       bytes. *)
    let neighbours = touching m ~off ~len in
    List.iter (fun (s, e) -> drop m s e) neighbours;
    let new_slice = { buf = Bytes.copy data; pos = 0; n = len } in
    let start, before =
      match neighbours with
      | (s, e) :: _ when s < off -> (s, (trim e ~from:0 ~len:(off - s)).slices)
      | _ -> (off, [])
    in
    let stop, after =
      match List.rev neighbours with
      | (s, e) :: _ when end_of s e > off + len ->
          (end_of s e, (trim e ~from:(off + len - s) ~len:(end_of s e - off - len)).slices)
      | _ -> (off + len, [])
    in
    add m start { size = stop - start; slices = before @ (new_slice :: after) }
  end

let apply m ~off buf =
  let len = Bytes.length buf in
  List.iter
    (fun (s, e) ->
      let copy_start = Stdlib.max s off in
      let copy_end = Stdlib.min (end_of s e) (off + len) in
      if copy_end > copy_start then
        blit_slices e.slices ~from:(copy_start - s) buf ~dst_off:(copy_start - off)
          ~len:(copy_end - copy_start))
    (touching m ~off ~len)

let covers m ~off ~len =
  len = 0
  ||
  (* Because extents are coalesced, full coverage means one extent
     spans the whole range. *)
  match IntMap.find_last_opt (fun s -> s <= off) m.extents with
  | Some (s, e) -> end_of s e >= off + len
  | None -> false

(* Bytes leaving the map. A lone slice spanning its whole buffer is
   handed over as is: slices of one buffer cover disjoint windows of
   it, so no other slice can share a buffer one slice spans. *)
let release e =
  match e.slices with
  | [ { buf; pos = 0; n } ] when n = Bytes.length buf -> buf
  | _ -> contents e

(* Remove the first [max] bytes of the extent at [s], copying out at
   most those. *)
let take m (s, e) ~max =
  drop m s e;
  if e.size <= max then Some (s, release e)
  else begin
    add m (s + max) (trim e ~from:max ~len:(e.size - max));
    Some (s, release (trim e ~from:0 ~len:max))
  end

let take_first m ~max = Option.bind (IntMap.min_binding_opt m.extents) (take m ~max)

let take_after m ~off ~max =
  let candidate =
    match IntMap.find_first_opt (fun s -> s >= off) m.extents with
    | Some binding -> Some binding
    | None -> IntMap.min_binding_opt m.extents
  in
  Option.bind candidate (take m ~max)

let iter f m = IntMap.iter (fun s e -> f s (contents e)) m.extents
