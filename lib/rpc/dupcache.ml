open Nfsg_sim
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names

type state = In_flight | Done of Bytes.t * Time.t

type entry = { mutable state : state; mutable last_touch : Time.t }

type verdict = New | In_progress | Replay of Bytes.t

(* A completed entry stamped with one of its instants. Ordered by
   instant, oldest first, with ties broken by (client, xid) so eviction
   order never depends on hash-table iteration order. *)
module Stamp = Set.Make (struct
  type t = Time.t * string * int

  let compare (t1, c1, x1) (t2, c2, x2) =
    match Int.compare t1 t2 with
    | 0 -> ( match String.compare c1 c2 with 0 -> Int.compare x1 x2 | c -> c)
    | c -> c
end)

type t = {
  eng : Engine.t;
  capacity : int;
  ttl : Time.t;
  table : (string * int, entry) Hashtbl.t;
  (* Both indexes hold exactly the completed entries; in-flight ones are
     in neither, which is what pins them. *)
  mutable by_done : Stamp.t;  (** keyed on completion time: expiry order *)
  mutable by_touch : Stamp.t;  (** keyed on [last_touch]: eviction order *)
  m_drops : Metrics.counter;
  m_replays : Metrics.counter;
  m_evictions : Metrics.counter;
  m_expirations : Metrics.counter;
  m_overflows : Metrics.counter;
}

let ns = Names.Ns.rpc_dupcache

let create eng ?(capacity = 512) ?(ttl = Time.sec 6) ?metrics () =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  {
    eng;
    capacity;
    ttl;
    table = Hashtbl.create 256;
    by_done = Stamp.empty;
    by_touch = Stamp.empty;
    m_drops = Metrics.counter m ~ns Names.drops;
    m_replays = Metrics.counter m ~ns Names.replays;
    m_evictions = Metrics.counter m ~ns Names.evictions;
    m_expirations = Metrics.counter m ~ns Names.expirations;
    m_overflows = Metrics.counter m ~ns Names.overflows;
  }

let entries t = Hashtbl.length t.table
let drops t = Metrics.value t.m_drops
let replays t = Metrics.value t.m_replays
let evictions t = Metrics.value t.m_evictions
let overflows t = Metrics.value t.m_overflows

let index t (client, xid) e =
  match e.state with
  | Done (_, at) ->
      t.by_done <- Stamp.add (at, client, xid) t.by_done;
      t.by_touch <- Stamp.add (e.last_touch, client, xid) t.by_touch
  | In_flight -> ()

let unindex t (client, xid) e =
  match e.state with
  | Done (_, at) ->
      t.by_done <- Stamp.remove (at, client, xid) t.by_done;
      t.by_touch <- Stamp.remove (e.last_touch, client, xid) t.by_touch
  | In_flight -> ()

(* Drop the completed entry at the front of [set], the other index's
   stamp included. *)
let drop_min t set =
  let _, client, xid = Stamp.min_elt set in
  let key = (client, xid) in
  unindex t key (Hashtbl.find t.table key);
  Hashtbl.remove t.table key

(* Make room for one insertion. First drop every completed entry whose
   TTL has lapsed (it can never be replayed again, only re-executed, so
   keeping it buys nothing); if the table is still at capacity, evict
   the least recently touched completed entries until one slot is free.
   In-flight entries are pinned — with every slot pinned there is no
   room, and the caller must not insert. *)
let make_room t =
  let now = Engine.now t.eng in
  let rec expire n =
    match Stamp.min_elt_opt t.by_done with
    | Some (at, _, _) when now - at > t.ttl ->
        drop_min t t.by_done;
        expire (n + 1)
    | Some _ | None -> n
  in
  Metrics.add t.m_expirations (expire 0);
  let rec evict n =
    if Hashtbl.length t.table < t.capacity || Stamp.is_empty t.by_touch then n
    else begin
      drop_min t t.by_touch;
      evict (n + 1)
    end
  in
  Metrics.add t.m_evictions (evict 0);
  Hashtbl.length t.table < t.capacity

let admit t ~client ~xid =
  let key = (client, xid) in
  let now = Engine.now t.eng in
  match Hashtbl.find_opt t.table key with
  | Some e -> (
      unindex t key e;
      e.last_touch <- now;
      match e.state with
      | In_flight ->
          Metrics.incr t.m_drops;
          In_progress
      | Done (reply, at) ->
          if now - at <= t.ttl then begin
            index t key e;
            Metrics.incr t.m_replays;
            Replay reply
          end
          else begin
            e.state <- In_flight;
            New
          end)
  | None ->
      if make_room t then
        Hashtbl.replace t.table key { state = In_flight; last_touch = now }
      else
        (* Every slot holds an in-flight request: execute uncached. A
           retransmission of this request during execution will not be
           recognised — the price of a bounded table under overload. *)
        Metrics.incr t.m_overflows;
      New

let complete t ~client ~xid reply =
  let key = (client, xid) in
  match Hashtbl.find_opt t.table key with
  | Some e ->
      unindex t key e;
      e.state <- Done (reply, Engine.now t.eng);
      e.last_touch <- Engine.now t.eng;
      index t key e
  | None -> ()

let forget t ~client ~xid =
  let key = (client, xid) in
  match Hashtbl.find_opt t.table key with
  | Some e ->
      unindex t key e;
      Hashtbl.remove t.table key
  | None -> ()

let clear t =
  Hashtbl.reset t.table;
  t.by_done <- Stamp.empty;
  t.by_touch <- Stamp.empty
